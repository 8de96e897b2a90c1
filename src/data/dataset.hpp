#pragma once
// Token datasets, sharding, and batch assembly.
//
// The paper partitions C4 uniformly into 64 equal shards; "N clients" means
// N of those shards (§5.1).  TokenDataset is a materialized token buffer
// (e.g. a validation set); Batch carries (B, T) inputs with shifted targets.

#include <cstdint>
#include <span>
#include <vector>

namespace photon {

/// A (B, T) training batch: `targets[i] = tokens[i+1]` within each row.
struct Batch {
  int batch = 0;
  int seq = 0;
  std::vector<int> tokens;   // (B*T)
  std::vector<int> targets;  // (B*T), -1 = ignored
};

class TokenDataset {
 public:
  TokenDataset() = default;
  explicit TokenDataset(std::vector<int> tokens) : tokens_(std::move(tokens)) {}

  std::size_t size() const { return tokens_.size(); }
  std::span<const int> tokens() const { return tokens_; }

  /// Split into `n` contiguous, equally-sized shards (remainder dropped,
  /// matching "64 equally sized shards").
  std::vector<TokenDataset> shard(std::size_t n) const;

  /// Deterministic batch starting at a fixed offset (for eval sweeps);
  /// offset wraps around the dataset.
  Batch batch_at(std::size_t offset, int batch, int seq) const;

 private:
  std::vector<int> tokens_;
};

/// Build the fill of a batch row: tokens from `window`, targets shifted.
void fill_row(std::span<const int> window, int seq, int row, Batch& out);

}  // namespace photon
