#include "data/stream.hpp"

#include <numeric>
#include <stdexcept>

namespace photon {

Batch DataSource::next_batch(int batch, int seq) {
  Batch out;
  out.batch = batch;
  out.seq = seq;
  out.tokens.resize(static_cast<std::size_t>(batch) * seq);
  out.targets.resize(static_cast<std::size_t>(batch) * seq);
  std::vector<int> window;
  for (int b = 0; b < batch; ++b) {
    window.clear();
    next_tokens(static_cast<std::size_t>(seq) + 1, window);
    fill_row(window, seq, b, out);
  }
  return out;
}

CorpusStreamSource::CorpusStreamSource(
    std::shared_ptr<const MarkovSource> corpus, std::uint64_t seed)
    : corpus_(std::move(corpus)),
      name_(corpus_->name() + "-stream"),
      rng_(seed),
      state_(SpecialTokens::kBos) {}

void CorpusStreamSource::next_tokens(std::size_t n, std::vector<int>& out) {
  state_ = corpus_->generate(rng_, n, out, state_);
  bytes_ += n * sizeof(int);
}

ShardSource::ShardSource(std::string name, TokenDataset shard,
                         std::uint64_t seed)
    : name_(std::move(name)), shard_(std::move(shard)), rng_(seed) {
  if (shard_.size() == 0) throw std::invalid_argument("ShardSource: empty");
}

void ShardSource::next_tokens(std::size_t n, std::vector<int>& out) {
  const auto toks = shard_.tokens();
  for (std::size_t i = 0; i < n; ++i) {
    if (cursor_ >= toks.size()) {
      cursor_ = 0;
      // Re-randomize the phase on wraparound so epochs differ.
      cursor_ = static_cast<std::size_t>(rng_.next_below(toks.size()));
    }
    out.push_back(toks[cursor_++]);
  }
  bytes_ += n * sizeof(int);
}

CachedSource::CachedSource(std::unique_ptr<DataSource> inner,
                           std::size_t block_tokens)
    : inner_(std::move(inner)),
      name_(inner_->name() + "-cached"),
      block_tokens_(block_tokens) {
  if (block_tokens_ == 0) {
    throw std::invalid_argument("CachedSource: block_tokens == 0");
  }
}

void CachedSource::next_tokens(std::size_t n, std::vector<int>& out) {
  std::size_t remaining = n;
  while (remaining > 0) {
    if (cache_pos_ >= cache_.size()) {
      cache_.clear();
      inner_->next_tokens(block_tokens_, cache_);
      cache_pos_ = 0;
      ++inner_fetches_;
    }
    const std::size_t take = std::min(remaining, cache_.size() - cache_pos_);
    out.insert(out.end(),
               cache_.begin() + static_cast<std::ptrdiff_t>(cache_pos_),
               cache_.begin() + static_cast<std::ptrdiff_t>(cache_pos_ + take));
    cache_pos_ += take;
    remaining -= take;
    served_tokens_ += take;
  }
  bytes_ += n * sizeof(int);
}

StreamMixer::StreamMixer(std::vector<std::unique_ptr<DataSource>> sources,
                         std::vector<double> weights, std::uint64_t seed,
                         std::size_t granularity)
    : sources_(std::move(sources)),
      weights_(std::move(weights)),
      rng_(seed),
      granularity_(granularity) {
  if (sources_.empty() || sources_.size() != weights_.size()) {
    throw std::invalid_argument("StreamMixer: sources/weights mismatch");
  }
  if (granularity_ == 0) {
    throw std::invalid_argument("StreamMixer: granularity == 0");
  }
  drawn_.assign(sources_.size(), 0);
}

void StreamMixer::next_tokens(std::size_t n, std::vector<int>& out) {
  std::size_t remaining = n;
  while (remaining > 0) {
    const std::size_t take = std::min(remaining, granularity_);
    const std::size_t pick = rng_.sample_weighted(weights_);
    sources_[pick]->next_tokens(take, out);
    drawn_[pick] += take;
    remaining -= take;
  }
}

std::uint64_t StreamMixer::bytes_streamed() const {
  std::uint64_t total = 0;
  for (const auto& s : sources_) total += s->bytes_streamed();
  return total;
}

TokenDataset materialize(DataSource& source, std::size_t n) {
  std::vector<int> tokens;
  tokens.reserve(n);
  source.next_tokens(n, tokens);
  return TokenDataset(std::move(tokens));
}

}  // namespace photon
