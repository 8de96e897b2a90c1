#include "data/corpus.hpp"

#include <cmath>
#include <stdexcept>

namespace photon {

MarkovSource::MarkovSource(const CorpusConfig& config, const CorpusStyle& style)
    : config_(config), style_(style) {
  if (config_.vocab_size <= SpecialTokens::kFirstContent + 1) {
    throw std::invalid_argument("MarkovSource: vocab too small");
  }
  if (config_.branching < 2) {
    throw std::invalid_argument("MarkovSource: branching < 2");
  }
  if (style_.base_blend < 0.0 || style_.base_blend > 1.0) {
    throw std::invalid_argument("MarkovSource: base_blend out of [0,1]");
  }

  const int v = config_.vocab_size;
  const int k = config_.branching;
  const int content_lo = SpecialTokens::kFirstContent;
  const int content_range = v - content_lo;
  successors_.resize(static_cast<std::size_t>(v) * k);
  cumprobs_.resize(static_cast<std::size_t>(v) * k);

  // Slots [0, blend_slots) of every state come from the shared base chain;
  // the remainder are style-specific.  blend = 1 -> all sources identical.
  const int blend_slots =
      static_cast<int>(std::lround(style_.base_blend * k));

  for (int s = 0; s < v; ++s) {
    double total = 0.0;
    std::vector<double> weights(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      const std::uint64_t chain_seed =
          i < blend_slots ? config_.base_seed : style_.style_seed;
      const std::uint64_t h1 = hash_combine(
          hash_combine(chain_seed, static_cast<std::uint64_t>(s)),
          static_cast<std::uint64_t>(i));
      const std::uint64_t h2 = hash_combine(h1, 0x9e3779b9ULL);
      const int succ = content_lo + static_cast<int>(h1 % static_cast<std::uint64_t>(content_range));
      // Exponentially skewed weights give natural-language-like head/tail.
      const double u =
          static_cast<double>(h2 >> 11) * 0x1.0p-53;  // uniform [0,1)
      const double w = std::exp(2.5 * u);
      successors_[static_cast<std::size_t>(s) * k + i] = succ;
      weights[static_cast<std::size_t>(i)] = w;
      total += w;
    }
    double cum = 0.0;
    for (int i = 0; i < k; ++i) {
      cum += weights[static_cast<std::size_t>(i)] / total;
      cumprobs_[static_cast<std::size_t>(s) * k + i] = static_cast<float>(cum);
    }
    cumprobs_[static_cast<std::size_t>(s) * k + (k - 1)] = 1.0f;
  }
}

int MarkovSource::sample_next(Rng& rng, int state) const {
  const int k = config_.branching;
  const float u = rng.next_float();
  const float* cum = cumprobs_.data() + static_cast<std::size_t>(state) * k;
  for (int i = 0; i < k; ++i) {
    if (u < cum[i]) {
      return successors_[static_cast<std::size_t>(state) * k + i];
    }
  }
  return successors_[static_cast<std::size_t>(state) * k + (k - 1)];
}

int MarkovSource::generate(Rng& rng, std::size_t n,
                           std::vector<int>& out) const {
  return generate(rng, n, out, SpecialTokens::kBos);
}

int MarkovSource::generate(Rng& rng, std::size_t n, std::vector<int>& out,
                           int state) const {
  if (state < 0 || state >= config_.vocab_size) {
    throw std::out_of_range("MarkovSource::generate: bad start state");
  }
  out.reserve(out.size() + n);
  const double eos_prob = 1.0 / config_.mean_doc_len;
  for (std::size_t i = 0; i < n; ++i) {
    if (state == SpecialTokens::kBos || state == SpecialTokens::kEos) {
      out.push_back(state);
      state = sample_next(rng, state);
      continue;
    }
    out.push_back(state);
    if (rng.next_bool(eos_prob)) {
      state = SpecialTokens::kEos;
    } else {
      state = sample_next(rng, state);
    }
  }
  return state;
}

std::vector<double> MarkovSource::transition_row(int state) const {
  if (state < 0 || state >= config_.vocab_size) {
    throw std::out_of_range("MarkovSource::transition_row");
  }
  std::vector<double> row(static_cast<std::size_t>(config_.vocab_size), 0.0);
  const int k = config_.branching;
  float prev = 0.0f;
  for (int i = 0; i < k; ++i) {
    const float cum = cumprobs_[static_cast<std::size_t>(state) * k + i];
    const int succ = successors_[static_cast<std::size_t>(state) * k + i];
    row[static_cast<std::size_t>(succ)] += static_cast<double>(cum - prev);
    prev = cum;
  }
  return row;
}

std::vector<CorpusStyle> pile_styles(double base_blend) {
  return {
      {"web", 0xAAA1, base_blend},
      {"academic", 0xBBB2, base_blend},
      {"prose", 0xCCC3, base_blend},
      {"wiki", 0xDDD4, base_blend},
  };
}

CorpusStyle c4_style() { return {"c4", 0x5EED, 1.0}; }

}  // namespace photon
