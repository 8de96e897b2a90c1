// data/: Markov corpora (incl. heterogeneity control), sharding, batching,
// and the DS streaming stack.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

// --------------------------------------------------------------- corpora --
TEST(MarkovSource, DeterministicForSeed) {
  CorpusConfig cc;
  MarkovSource src(cc, c4_style());
  Rng r1(5), r2(5);
  std::vector<int> a, b;
  src.generate(r1, 500, a);
  src.generate(r2, 500, b);
  EXPECT_EQ(a, b);
}

TEST(MarkovSource, TokensInContentRangeOrSpecial) {
  CorpusConfig cc;
  cc.vocab_size = 64;
  MarkovSource src(cc, c4_style());
  Rng rng(9);
  std::vector<int> toks;
  src.generate(rng, 2000, toks);
  for (int t : toks) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 64);
  }
}

TEST(MarkovSource, TransitionRowsAreDistributions) {
  CorpusConfig cc;
  MarkovSource src(cc, c4_style());
  for (int s : {0, 1, 5, 100, 255}) {
    const auto row = src.transition_row(s);
    double total = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
  EXPECT_THROW(src.transition_row(-1), std::out_of_range);
}

TEST(MarkovSource, FullBlendMakesSourcesIdentical) {
  CorpusConfig cc;
  const auto styles = pile_styles(/*base_blend=*/1.0);
  MarkovSource a(cc, styles[0]), b(cc, styles[1]);
  for (int s : {4, 10, 77}) {
    EXPECT_EQ(a.transition_row(s), b.transition_row(s));
  }
}

TEST(MarkovSource, ZeroBlendMakesSourcesDiverge) {
  CorpusConfig cc;
  const auto styles = pile_styles(/*base_blend=*/0.0);
  MarkovSource a(cc, styles[0]), b(cc, styles[1]);
  int differing = 0;
  for (int s = 4; s < 40; ++s) {
    if (a.transition_row(s) != b.transition_row(s)) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(MarkovSource, ValidatesConfig) {
  CorpusConfig cc;
  cc.vocab_size = 4;
  EXPECT_THROW(MarkovSource(cc, c4_style()), std::invalid_argument);
  CorpusConfig cc2;
  cc2.branching = 1;
  EXPECT_THROW(MarkovSource(cc2, c4_style()), std::invalid_argument);
  CorpusStyle bad = c4_style();
  bad.base_blend = 1.5;
  EXPECT_THROW(MarkovSource(CorpusConfig{}, bad), std::invalid_argument);
}

// --------------------------------------------------------------- dataset --
TEST(TokenDataset, ShardsEquallyAndCompletely) {
  std::vector<int> toks(640);
  for (std::size_t i = 0; i < toks.size(); ++i) toks[i] = static_cast<int>(i);
  TokenDataset ds(std::move(toks));
  const auto shards = ds.shard(64);
  EXPECT_EQ(shards.size(), 64u);
  for (const auto& s : shards) EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(shards[1].tokens()[0], 10);
  EXPECT_EQ(shards[63].tokens()[9], 639);
}

TEST(TokenDataset, ShardErrors) {
  TokenDataset ds(std::vector<int>{1, 2, 3});
  EXPECT_THROW(ds.shard(0), std::invalid_argument);
  EXPECT_THROW(ds.shard(10), std::invalid_argument);
}

TEST(TokenDataset, BatchTargetsAreShiftedByOne) {
  std::vector<int> toks(100);
  for (std::size_t i = 0; i < toks.size(); ++i) toks[i] = static_cast<int>(i);
  TokenDataset ds(std::move(toks));
  const Batch b = ds.batch_at(0, 2, 8);
  for (int row = 0; row < 2; ++row) {
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(b.targets[row * 8 + t], b.tokens[row * 8 + t] + 1);
    }
  }
}

// --------------------------------------------------------------- streams --
std::shared_ptr<const MarkovSource> test_corpus(int vocab = 256) {
  CorpusConfig cc;
  cc.vocab_size = vocab;
  return std::make_shared<MarkovSource>(cc, c4_style());
}

TEST(CorpusStreamSource, StreamsRequestedCountsAndAccountsBytes) {
  CorpusStreamSource src(test_corpus(), 11);
  std::vector<int> out;
  src.next_tokens(100, out);
  EXPECT_EQ(out.size(), 100u);
  src.next_tokens(50, out);
  EXPECT_EQ(out.size(), 150u);
  EXPECT_EQ(src.bytes_streamed(), 150u * sizeof(int));
}

TEST(CorpusStreamSource, NextBatchShiftsTargets) {
  CorpusStreamSource src(test_corpus(), 13);
  const Batch b = src.next_batch(2, 16);
  EXPECT_EQ(b.tokens.size(), 32u);
  EXPECT_EQ(b.targets.size(), 32u);
}

TEST(ShardSource, LoopsForever) {
  TokenDataset shard(std::vector<int>{1, 2, 3, 4, 5});
  ShardSource src("shard0", std::move(shard), 3);
  std::vector<int> out;
  src.next_tokens(23, out);
  EXPECT_EQ(out.size(), 23u);
  for (int t : out) {
    EXPECT_GE(t, 1);
    EXPECT_LE(t, 5);
  }
}

TEST(CachedSource, ServesSameStreamWithFewerFetches) {
  auto corpus = test_corpus();
  CachedSource cached(std::make_unique<CorpusStreamSource>(corpus, 21), 256);
  std::vector<int> out;
  for (int i = 0; i < 10; ++i) cached.next_tokens(50, out);
  EXPECT_EQ(out.size(), 500u);
  EXPECT_EQ(cached.served_tokens(), 500u);
  EXPECT_EQ(cached.inner_fetches(), 2u);  // 500 tokens / 256-block = 2 fetches

  // Content identical to the raw stream with the same seed.
  CorpusStreamSource raw(corpus, 21);
  std::vector<int> expected;
  raw.next_tokens(500, expected);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), expected.begin()));
}

TEST(StreamMixer, RespectsWeights) {
  auto corpus = test_corpus();
  std::vector<std::unique_ptr<DataSource>> sources;
  sources.push_back(std::make_unique<CorpusStreamSource>(corpus, 1));
  sources.push_back(std::make_unique<CorpusStreamSource>(corpus, 2));
  StreamMixer mixer(std::move(sources), {1.0, 3.0}, 7, /*granularity=*/16);
  std::vector<int> out;
  mixer.next_tokens(16000, out);
  const auto& drawn = mixer.tokens_per_source();
  const double frac1 =
      static_cast<double>(drawn[1]) / static_cast<double>(drawn[0] + drawn[1]);
  EXPECT_NEAR(frac1, 0.75, 0.05);
}

TEST(StreamMixer, ValidatesArguments) {
  std::vector<std::unique_ptr<DataSource>> empty;
  EXPECT_THROW(StreamMixer(std::move(empty), {}, 1), std::invalid_argument);
}

TEST(Materialize, BuildsDatasetOfRequestedSize) {
  CorpusStreamSource src(test_corpus(), 31);
  const TokenDataset ds = materialize(src, 1000);
  EXPECT_EQ(ds.size(), 1000u);
}

}  // namespace
}  // namespace photon
