#include "nn/config.hpp"

namespace photon {

std::int64_t ModelConfig::num_params() const {
  const std::int64_t c = d_model;
  const std::int64_t ec = static_cast<std::int64_t>(expansion_ratio) * c;
  // Embedding (tied LM head).
  std::int64_t n = static_cast<std::int64_t>(vocab_size) * c;
  // Per block: 2 LayerNorms, qkv, attn proj, 2 MLP linears.
  const std::int64_t per_block = 2 * (2 * c)          // ln1, ln2 (gamma+beta)
                                 + (3 * c * c + 3 * c)  // qkv
                                 + (c * c + c)          // attn proj
                                 + (ec * c + ec)        // fc
                                 + (c * ec + c);        // fc proj
  n += n_layers * per_block;
  n += 2 * c;  // final LayerNorm
  return n;
}

double ModelConfig::flops_per_token() const {
  // 6 * N for dense params + 12 * L * C * T attention term (T amortized by
  // seq_len/2 average causal context).
  const double dense = 6.0 * static_cast<double>(num_params());
  const double attn = 12.0 * n_layers * static_cast<double>(d_model) *
                      (static_cast<double>(seq_len) / 2.0);
  return dense + attn;
}

// Paper Table 4.
ModelConfig ModelConfig::paper_75m() { return {3, 896, 16, 50368, 1024, 4}; }
ModelConfig ModelConfig::paper_125m() { return {12, 768, 12, 50368, 2048, 4}; }
ModelConfig ModelConfig::paper_350m() { return {24, 1024, 16, 50368, 2048, 4}; }
ModelConfig ModelConfig::paper_1_3b() { return {24, 2048, 16, 50368, 2048, 4}; }
ModelConfig ModelConfig::paper_3b() { return {32, 2560, 20, 50368, 2048, 4}; }
ModelConfig ModelConfig::paper_7b() { return {32, 4096, 32, 50368, 2048, 4}; }

// CPU stand-ins: depth and width shrink together, vocab/seq shrink to match
// the synthetic corpus, head count keeps head_size >= 8.
ModelConfig ModelConfig::nano() { return {2, 32, 2, 128, 32, 4}; }
ModelConfig ModelConfig::micro() { return {3, 48, 3, 256, 48, 4}; }
ModelConfig ModelConfig::small() { return {4, 80, 4, 256, 64, 4}; }

}  // namespace photon
