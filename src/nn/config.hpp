#pragma once
// Model architecture configuration.
//
// Mirrors the paper's Table 4 (MPT-style decoder-only transformers with
// ALiBi, vocab 50368, expansion ratio 4).  Because this repository trains on
// CPU, each paper size also has a *stand-in* preset: same depth/width ratios
// and head counts scaled down so that federated convergence experiments run
// in seconds while preserving the optimization dynamics under study.

#include <cstdint>

namespace photon {

struct ModelConfig {
  int n_layers = 2;
  int d_model = 64;
  int n_heads = 4;
  int vocab_size = 256;
  int seq_len = 64;
  int expansion_ratio = 4;

  bool operator==(const ModelConfig&) const = default;

  /// Number of trainable parameters (embedding tied with LM head).
  std::int64_t num_params() const;

  /// FLOPs for one forward+backward pass over a single token, using the
  /// standard 6*N approximation plus attention terms (used for MFU).
  double flops_per_token() const;

  // ----- Paper Table 4 architectures (for analytic system modeling) -----
  static ModelConfig paper_125m();
  static ModelConfig paper_350m();
  static ModelConfig paper_1_3b();
  static ModelConfig paper_3b();
  static ModelConfig paper_7b();

  // ----- CPU stand-ins (for actually-trained experiments) -----
  /// ~27k params; unit tests / property tests.
  static ModelConfig nano();
  /// ~105k params; stand-in for the 125M model in convergence sweeps.
  static ModelConfig micro();
  /// ~420k params; stand-in for 1.3B-class comparisons.
  static ModelConfig small();
};

}  // namespace photon
