#include "data/dataset.hpp"

#include <stdexcept>

namespace photon {

std::vector<TokenDataset> TokenDataset::shard(std::size_t n) const {
  if (n == 0) throw std::invalid_argument("TokenDataset::shard: n == 0");
  const std::size_t per = tokens_.size() / n;
  if (per == 0) throw std::invalid_argument("TokenDataset::shard: too small");
  std::vector<TokenDataset> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards.emplace_back(std::vector<int>(
        tokens_.begin() + static_cast<std::ptrdiff_t>(i * per),
        tokens_.begin() + static_cast<std::ptrdiff_t>((i + 1) * per)));
  }
  return shards;
}

void fill_row(std::span<const int> window, int seq, int row, Batch& out) {
  const auto base = static_cast<std::size_t>(row) * seq;
  for (int t = 0; t < seq; ++t) {
    out.tokens[base + static_cast<std::size_t>(t)] = window[static_cast<std::size_t>(t)];
    out.targets[base + static_cast<std::size_t>(t)] =
        window[static_cast<std::size_t>(t) + 1];
  }
}

Batch TokenDataset::batch_at(std::size_t offset, int batch, int seq) const {
  const std::size_t need = static_cast<std::size_t>(seq) + 1;
  if (tokens_.size() < need) {
    throw std::invalid_argument("TokenDataset::batch_at: dataset too small");
  }
  Batch out;
  out.batch = batch;
  out.seq = seq;
  out.tokens.resize(static_cast<std::size_t>(batch) * seq);
  out.targets.resize(static_cast<std::size_t>(batch) * seq);
  const std::size_t max_start = tokens_.size() - need;
  for (int b = 0; b < batch; ++b) {
    const std::size_t start =
        (offset + static_cast<std::size_t>(b) * seq) % (max_start + 1);
    fill_row(std::span<const int>(tokens_).subspan(start, need), seq, b, out);
  }
  return out;
}

}  // namespace photon
