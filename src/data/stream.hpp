#pragma once
// Photon Data Sources (DS): decoupled token streaming.
//
// Mirrors the paper's DS design (§3.1, §4 "Data Streaming for DS"):
//  * a DataSource produces a continuous token stream bound to one LLM-C;
//  * sources can be private (one client) or public (shared);
//  * StreamMixer mixes arbitrary streams with precise sampling control;
//  * CachedSource adds the pre-tokenization/caching optimization.
// Sources account bytes delivered, so benches can report DS traffic.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace photon {

class DataSource {
 public:
  virtual ~DataSource() = default;

  virtual const std::string& name() const = 0;

  /// Append exactly `n` tokens to `out`.
  virtual void next_tokens(std::size_t n, std::vector<int>& out) = 0;

  /// Total bytes streamed so far (4 bytes/token unless compressed).
  virtual std::uint64_t bytes_streamed() const = 0;

  /// Pull a (batch, seq) training batch off the stream.
  Batch next_batch(int batch, int seq);
};

/// Streams freshly generated tokens from a synthetic corpus, simulating a
/// private silo streaming to its bound LLM-C.
class CorpusStreamSource final : public DataSource {
 public:
  CorpusStreamSource(std::shared_ptr<const MarkovSource> corpus,
                     std::uint64_t seed);

  const std::string& name() const override { return name_; }
  void next_tokens(std::size_t n, std::vector<int>& out) override;
  std::uint64_t bytes_streamed() const override { return bytes_; }

 private:
  std::shared_ptr<const MarkovSource> corpus_;
  std::string name_;
  Rng rng_;
  int state_;  // chain state carried across calls: a continuous stream
  std::uint64_t bytes_ = 0;
};

/// Replays a fixed shard of pre-tokenized data in an endless shuffled loop
/// (the paper's "64 equally sized shards of C4" setting).
class ShardSource final : public DataSource {
 public:
  ShardSource(std::string name, TokenDataset shard, std::uint64_t seed);

  const std::string& name() const override { return name_; }
  void next_tokens(std::size_t n, std::vector<int>& out) override;
  std::uint64_t bytes_streamed() const override { return bytes_; }

 private:
  std::string name_;
  TokenDataset shard_;
  Rng rng_;
  std::size_t cursor_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Caching wrapper: materializes blocks of `block_tokens` from the inner
/// source and serves from the cache, modeling DS-side pre-tokenization +
/// caching (paper §4).  Reports cache hit statistics.
class CachedSource final : public DataSource {
 public:
  CachedSource(std::unique_ptr<DataSource> inner, std::size_t block_tokens);

  const std::string& name() const override { return name_; }
  void next_tokens(std::size_t n, std::vector<int>& out) override;
  std::uint64_t bytes_streamed() const override { return bytes_; }

  std::uint64_t inner_fetches() const { return inner_fetches_; }
  std::uint64_t served_tokens() const { return served_tokens_; }

 private:
  std::unique_ptr<DataSource> inner_;
  std::string name_;
  std::size_t block_tokens_;
  std::vector<int> cache_;
  std::size_t cache_pos_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t inner_fetches_ = 0;
  std::uint64_t served_tokens_ = 0;
};

/// Mixes several sources with explicit sampling weights; each call samples
/// the source per `granularity`-token chunk.  This is the paper's "mixing
/// arbitrary data streams with precise control over sampling".
class StreamMixer final : public DataSource {
 public:
  StreamMixer(std::vector<std::unique_ptr<DataSource>> sources,
              std::vector<double> weights, std::uint64_t seed,
              std::size_t granularity = 64);

  const std::string& name() const override { return name_; }
  void next_tokens(std::size_t n, std::vector<int>& out) override;
  std::uint64_t bytes_streamed() const override;

  /// Tokens drawn from each component so far (for tests of mixing ratios).
  const std::vector<std::uint64_t>& tokens_per_source() const {
    return drawn_;
  }

 private:
  std::vector<std::unique_ptr<DataSource>> sources_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> drawn_;
  std::string name_ = "mixer";
  Rng rng_;
  std::size_t granularity_;
};

/// Materialize `n` tokens from a source into a TokenDataset (e.g. to build
/// the shared validation set).
TokenDataset materialize(DataSource& source, std::size_t n);

}  // namespace photon
