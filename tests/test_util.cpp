// util/: RNG determinism & statistics, serialization, CRC, stats, table,
// thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(123);
  Rng child = a.split();
  Rng b(123);
  Rng child2 = b.split();
  EXPECT_EQ(child.next_u64(), child2.next_u64());  // deterministic split
  EXPECT_NE(child.next_u64(), a.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const auto n = rng.next_below(7);
    EXPECT_LT(n, 7u);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  constexpr int kN = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt((sum_sq - kN * mean * mean) / (kN - 1)), 1.0, 0.03);
}

TEST(Rng, SampleWithoutReplacementIsUniformAndDistinct) {
  Rng rng(11);
  std::vector<int> hits(10, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto sample = rng.sample_without_replacement(10, 4);
    EXPECT_EQ(sample.size(), 4u);
    std::set<std::size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 4u);
    for (auto s : sample) hits[s]++;
  }
  // Each index expected 3000 * 4/10 = 1200 hits.
  for (int h : hits) EXPECT_NEAR(h, 1200, 150);
}

TEST(Rng, SampleWeightedFollowsWeights) {
  Rng rng(13);
  const std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 10000; ++i) hits[rng.sample_weighted(w)]++;
  EXPECT_EQ(hits[2], 0);
  EXPECT_NEAR(hits[0], 1000, 150);
  EXPECT_NEAR(hits[1], 3000, 250);
  EXPECT_NEAR(hits[3], 6000, 250);
}

TEST(Rng, SampleErrors) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(3, 5), std::invalid_argument);
  EXPECT_THROW(rng.sample_weighted({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.sample_weighted({-1.0, 2.0}), std::invalid_argument);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(Serialization, RoundTripPrimitivesStringsVectors) {
  BinaryWriter w;
  w.write<std::uint32_t>(0xdeadbeef);
  w.write<double>(3.25);
  w.write_string("photon");
  w.write_vector(std::vector<float>{1.5f, -2.5f});
  w.write_vector(std::vector<int>{7, 8, 9});

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read_string(), "photon");
  EXPECT_EQ(r.read_vector<float>(), (std::vector<float>{1.5f, -2.5f}));
  EXPECT_EQ(r.read_vector<int>(), (std::vector<int>{7, 8, 9}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, TruncationThrows) {
  BinaryWriter w;
  w.write<std::uint64_t>(10);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 10u);
  EXPECT_THROW(r.read<std::uint64_t>(), std::runtime_error);
}

TEST(Serialization, LengthsThatWouldWrapThrowWithoutMoving) {
  // Lengths come from files and the wire: ones whose position or byte
  // arithmetic would wrap past 2^64 must fail as truncation, not move the
  // read position or reach the allocator.
  for (const std::uint64_t n : {~std::uint64_t{0}, std::uint64_t{1} << 63,
                                std::uint64_t{1} << 62}) {
    BinaryWriter w;
    w.write(n);
    w.write(std::uint64_t{0});
    const auto prefixed = [&](auto read) {
      BinaryReader r(w.bytes());
      EXPECT_THROW(read(r), std::runtime_error) << n;
      EXPECT_EQ(r.remaining(), 8u) << n;
    };
    prefixed([](BinaryReader& r) { r.read_string(); });
    prefixed([](BinaryReader& r) { r.read_vector<std::uint8_t>(); });
    prefixed([](BinaryReader& r) { r.read_vector<float>(); });
    prefixed([](BinaryReader& r) { r.read_vector<double>(); });
    const auto raw = [&](auto read) {
      BinaryReader r(w.bytes());
      r.read<std::uint64_t>();
      EXPECT_THROW(read(r), std::runtime_error) << n;
      EXPECT_EQ(r.remaining(), 8u) << n;
    };
    raw([&](BinaryReader& r) { r.read_raw(n); });
    raw([&](BinaryReader& r) { r.view_raw(n); });
  }
}

TEST(Crc32, KnownVectorAndSensitivity) {
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32({p, s.size()}), 0xCBF43926u);  // standard check value
  std::vector<std::uint8_t> v(p, p + s.size());
  v[3] ^= 1;
  EXPECT_NE(crc32(v), 0xCBF43926u);
}

TEST(Quantile, Interpolates) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
}

TEST(TablePrinter, AlignsColumnsAndChecksArity) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1.00"});
  t.add_row({"longer-name", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 2     |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt_ratio(0.5, 2), "0.50x");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ChunkedParallelForCoversAllIndicesOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{100}, std::size_t{101}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 8, [&](std::size_t begin, std::size_t end) {
      ASSERT_LE(begin, end);
      for (std::size_t i = begin; i < end; ++i) hits[i]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  // grain larger than n: must still cover everything (single chunk).
  std::atomic<int> covered{0};
  pool.parallel_for(5, 1000, [&](std::size_t begin, std::size_t end) {
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 5);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::in_parallel_section());
  // The caller thread executes one chunk itself, so bodies run both on
  // workers and on the caller; nested calls from either must run inline
  // instead of deadlocking on the shared queue.
  std::atomic<int> count{0};
  std::atomic<int> in_section{0};
  pool.parallel_for(8, [&](std::size_t) {
    if (ThreadPool::in_parallel_section()) in_section.fetch_add(1);
    pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 8 * 16);
  EXPECT_EQ(in_section.load(), 8);
  // submit() always lands on a worker thread.
  auto f = pool.submit([&] {
    EXPECT_TRUE(ThreadPool::in_parallel_section());
    pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
  });
  f.get();
  EXPECT_FALSE(ThreadPool::in_parallel_section());
  EXPECT_EQ(count.load(), 9 * 16);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  // Two failing indices: the lowest one must win regardless of which worker
  // finishes first, and the pool must not terminate the process.
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 37 || i == 73) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
      hits[i]++;
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 37");
  }
  // Chunks other than the failing ones ran to completion before the rethrow.
  int covered = 0;
  for (const auto& h : hits) covered += h.load();
  EXPECT_GE(covered, 100 - 2 - 2 * 25);  // at most two partial chunks lost
  // The pool survives and is reusable after an exception.
  std::atomic<int> after{0};
  pool.parallel_for(64, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, ParallelForCallerChunkExceptionJoinsWorkers) {
  ThreadPool pool(4);
  // The caller thread runs the LAST chunk itself; throwing there must not
  // abandon in-flight worker tasks (they reference stack locals).
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 99) throw std::logic_error("tail");
                                   hits[i]++;
                                 }),
               std::logic_error);
  for (std::size_t i = 0; i + 1 < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkedParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100, 8,
                                 [&](std::size_t begin, std::size_t) {
                                   if (begin == 0) {
                                     throw std::invalid_argument("chunk 0");
                                   }
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForStress) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.parallel_for(32, 2, [&](std::size_t begin, std::size_t end) {
      pool.parallel_for(end - begin, [&](std::size_t) {
        total.fetch_add(1);
      });
    });
  }
  EXPECT_EQ(total.load(), 50L * 32);
}

}  // namespace
}  // namespace photon
