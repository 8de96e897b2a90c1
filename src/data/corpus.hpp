#pragma once
// Synthetic corpora standing in for C4 and The Pile.
//
// Each source is a sparse first-order Markov chain over the token vocabulary
// with a controllable *style*: a per-source transition structure blended
// with a shared "language" base chain.  blend = 1 reproduces the IID setting
// (all clients sample the same distribution, like the paper's 64 uniform C4
// shards); lower blend values reproduce The-Pile-style heterogeneity where
// clients hold distinct text categories (paper §5.1 / §5.5).
//
// Chains are deterministic functions of their seeds, so every client can
// regenerate its stream without moving data — the property Photon's DS
// design relies on.

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace photon {

/// Reserved token ids shared by the corpora and the evaluation probes.
struct SpecialTokens {
  static constexpr int kPad = 0;
  static constexpr int kBos = 1;
  static constexpr int kEos = 2;
  static constexpr int kSep = 3;
  static constexpr int kFirstContent = 4;
};

struct CorpusStyle {
  std::string name;          // e.g. "web", "academic", "prose", "wiki"
  std::uint64_t style_seed = 1;
  /// Weight of the shared base chain in [0, 1]; 1 = identical to all other
  /// sources (IID), 0 = fully source-specific transitions.
  double base_blend = 1.0;
};

struct CorpusConfig {
  int vocab_size = 256;
  /// Nonzero successors per state; lower = more predictable text.
  int branching = 12;
  /// Documents are geometric with this mean length; EOS separates them.
  int mean_doc_len = 128;
  std::uint64_t base_seed = 0xC0FFEE;
};

/// One text source (a single silo's corpus).
class MarkovSource {
 public:
  MarkovSource(const CorpusConfig& config, const CorpusStyle& style);

  const std::string& name() const { return style_.name; }
  int vocab_size() const { return config_.vocab_size; }

  /// Append `n` tokens of fresh text to `out`, drawn with `rng`, starting
  /// from `state` (SpecialTokens::kBos begins a new document).  Returns the
  /// chain state after the last emitted token so callers can stream
  /// continuously across calls.
  int generate(Rng& rng, std::size_t n, std::vector<int>& out,
               int state) const;

  /// Convenience overload starting a fresh document.
  int generate(Rng& rng, std::size_t n, std::vector<int>& out) const;

  /// Transition probabilities out of `state` (size vocab); mostly zeros.
  std::vector<double> transition_row(int state) const;

 private:
  int sample_next(Rng& rng, int state) const;

  CorpusConfig config_;
  CorpusStyle style_;
  // CSR-ish: per state, `branching` successor ids and cumulative probs.
  std::vector<int> successors_;
  std::vector<float> cumprobs_;
};

/// The four Pile-style categories used in the heterogeneity experiments.
std::vector<CorpusStyle> pile_styles(double base_blend);

/// Single homogeneous style used for C4-style IID experiments.
CorpusStyle c4_style();

}  // namespace photon
