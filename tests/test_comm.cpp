// comm/: codecs, messages, links, fabric, collectives, secure aggregation,
// and the Appendix-B.1 cost model against hand-computed values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "comm/collective.hpp"
#include "comm/compression.hpp"
#include "comm/cost_model.hpp"
#include "comm/link.hpp"
#include "comm/message.hpp"
#include "comm/secure_agg.hpp"
#include "tensor/kernel_context.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

/// `m` encoded as a sender would before handing it to a link.
WireScratch encoded(const Message& m) {
  WireScratch image;
  m.encode_into(image);
  return image;
}

// ---------------------------------------------------------------- codecs --
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed,
                                       double zero_fraction) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) {
    b = rng.next_bool(zero_fraction)
            ? 0
            : static_cast<std::uint8_t>(rng.next_below(256));
  }
  return v;
}

class CodecRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecRoundTrip, ArbitraryInputsRoundTripExactly) {
  const Codec* codec = codec_by_name(GetParam());
  ASSERT_NE(codec, nullptr);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (double zf : {0.0, 0.3, 0.9, 1.0}) {
      const auto input = random_bytes(1 + seed * 137, seed, zf);
      const auto compressed = codec->compress(input);
      const auto output = codec->decompress(compressed);
      ASSERT_EQ(output, input) << GetParam() << " seed=" << seed << " zf=" << zf;
    }
  }
  // Empty input.
  EXPECT_TRUE(codec->decompress(codec->compress({})).empty());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values("", "rle0"));

TEST(Rle0Codec, CompressesZeroRuns) {
  Rle0Codec codec;
  const std::vector<std::uint8_t> zeros(1000, 0);
  EXPECT_LT(codec.compress(zeros).size(), 20u);
}

TEST(CodecRegistry, UnknownNameIsNull) {
  EXPECT_EQ(codec_by_name("zstd"), nullptr);
  EXPECT_EQ(codec_by_name("lzss"), nullptr);
}

// -------------------------------------------------------------- messages --
TEST(Message, RoundTripWithMetadataAndCompression) {
  Message m;
  m.type = MessageType::kClientUpdate;
  m.round = 42;
  m.sender = 7;
  m.codec = "rle0";
  m.payload = {1.0f, -2.0f, 0.0f, 0.0f, 0.0f, 3.5f};
  m.metadata["train_loss"] = 2.5;
  m.metadata["tokens"] = 4096.0;

  const auto wire = m.encode();
  const Message back = Message::decode(wire);
  EXPECT_EQ(back.type, MessageType::kClientUpdate);
  EXPECT_EQ(back.round, 42u);
  EXPECT_EQ(back.sender, 7u);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_DOUBLE_EQ(back.metadata.at("train_loss"), 2.5);
  EXPECT_DOUBLE_EQ(back.metadata.at("tokens"), 4096.0);
}

TEST(Message, DecodeRejectsUnregisteredCodec) {
  // A PHO2 message naming a codec this build does not register fails with a
  // typed error before any chunk is decoded.
  Message m;
  m.codec = "rle0";
  m.payload = {1.0f, 0.0f, 0.0f, 2.5f};
  auto wire = m.encode();
  const std::string from = "rle0";
  const std::string to = "lzss";
  const auto at =
      std::search(wire.begin(), wire.end(), from.begin(), from.end());
  ASSERT_NE(at, wire.end());
  std::copy(to.begin(), to.end(), at);
  try {
    (void)Message::decode(wire);
    FAIL() << "decode accepted an unregistered codec";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown codec lzss"),
              std::string::npos)
        << e.what();
  }
}

TEST(Message, CrcDetectsCorruption) {
  Message m;
  m.payload = {1.0f, 2.0f, 3.0f};
  auto wire = m.encode();
  wire[wire.size() / 2] ^= 0xFF;  // flip payload bits
  EXPECT_THROW(Message::decode(wire), std::runtime_error);
}

TEST(Message, BadMagicRejected) {
  std::vector<std::uint8_t> junk(64, 0xAB);
  EXPECT_THROW(Message::decode(junk), std::runtime_error);
}

TEST(Message, SparsePayloadCompressesOnWire) {
  Message dense, sparse;
  dense.payload.assign(4096, 1.234f);
  sparse.codec = "rle0";
  sparse.payload.assign(4096, 0.0f);
  EXPECT_LT(sparse.encode().size(), dense.encode().size() / 10);
}

// ----------------------------------------------------------------- links --
TEST(SimLink, TransferTimeFollowsBandwidthAndLatency) {
  SimLink link("test", /*gbps=*/8.0, /*latency_ms=*/10.0);
  // 8 Gbps = 1e9 bytes/s; 1e9 bytes take 1 s + 10 ms latency.
  EXPECT_NEAR(link.transfer_time(1000000000ull), 1.01, 1e-9);
}

TEST(SimLink, TransmitAccountsAndPreservesMessage) {
  SimLink link("test", 1.0);
  Message m;
  m.payload = {1.0f, 2.0f};
  Message back;
  link.transmit(m, encoded(m), back);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_EQ(link.stats().messages, 1u);
  EXPECT_EQ(link.stats().payload_bytes, 8u);
  EXPECT_GT(link.stats().wire_bytes, 8u);  // header overhead
  EXPECT_GT(link.stats().transfer_seconds, 0.0);
}

TEST(SimLink, RejectsBadConfig) {
  EXPECT_THROW(SimLink("x", 0.0), std::invalid_argument);
  EXPECT_THROW(SimLink("x", 1.0, -1.0), std::invalid_argument);
}

TEST(NetworkFabric, BottleneckQueries) {
  NetworkFabric fabric({"a", "b", "c"});
  fabric.set_symmetric_bandwidth(0, 1, 10.0);
  fabric.set_symmetric_bandwidth(1, 2, 0.8);
  fabric.set_symmetric_bandwidth(0, 2, 5.0);
  EXPECT_DOUBLE_EQ(fabric.slowest_ring_link_gbps(), 0.8);  // b->c link
  EXPECT_DOUBLE_EQ(fabric.slowest_star_link_gbps(0), 5.0);
  EXPECT_EQ(fabric.site_index("c"), 2u);
  EXPECT_THROW(fabric.site_index("z"), std::out_of_range);
}

// ------------------------------------------------------------ collectives --
class CollectiveMean : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveMean, AllTopologiesComputeTheSameMean) {
  const int k = GetParam();
  const std::size_t n = 101;  // deliberately not divisible by k
  Rng rng(static_cast<std::uint64_t>(k));
  std::vector<std::vector<float>> reference(static_cast<std::size_t>(k),
                                            std::vector<float>(n));
  std::vector<float> expected(n, 0.0f);
  for (auto& buf : reference) {
    for (auto& x : buf) x = rng.gaussian(0, 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (const auto& buf : reference) acc += buf[i];
    expected[i] = static_cast<float>(acc / k);
  }

  for (const Topology topo : {Topology::kParameterServer, Topology::kAllReduce,
                              Topology::kRingAllReduce}) {
    auto copies = reference;
    std::vector<std::span<float>> spans;
    for (auto& c : copies) spans.emplace_back(c);
    collective_mean(topo, spans);
    for (const auto& c : copies) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(c[i], expected[i], 1e-4f)
            << topology_name(topo) << " k=" << k << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CollectiveMean,
                         ::testing::Values(2, 3, 4, 7, 8, 16));

TEST(Collective, ByteAccountingMatchesFormulas) {
  const int k = 4;
  const std::size_t n = 1000;
  const std::uint64_t size_bytes = n * sizeof(float);

  const auto ps =
      collective_cost(Topology::kParameterServer, k, size_bytes, 100.0);
  EXPECT_EQ(ps.bottleneck_bytes, k * size_bytes);

  const auto ar = collective_cost(Topology::kAllReduce, k, size_bytes, 100.0);
  EXPECT_EQ(ar.bottleneck_bytes, (k - 1) * size_bytes);
  EXPECT_EQ(ar.total_bytes, static_cast<std::uint64_t>(k) * (k - 1) * size_bytes);

  const auto rar =
      collective_cost(Topology::kRingAllReduce, k, size_bytes, 100.0);
  EXPECT_EQ(rar.bottleneck_bytes, 2 * size_bytes * (k - 1) / k);
  // RAR is bandwidth-optimal: strictly less per-worker traffic than AR.
  EXPECT_LT(rar.bottleneck_bytes, ar.bottleneck_bytes);
}

TEST(Collective, SingleWorkerIsIdentity) {
  std::vector<float> buf{1.0f, 2.0f};
  std::vector<std::span<float>> spans{std::span<float>(buf)};
  collective_mean(Topology::kRingAllReduce, spans);
  const auto r = collective_cost(Topology::kRingAllReduce, 1,
                                 buf.size() * sizeof(float), 100.0);
  EXPECT_DOUBLE_EQ(r.seconds, 0.0);
  EXPECT_FLOAT_EQ(buf[0], 1.0f);
}

TEST(Collective, ValidatesBuffers) {
  std::vector<float> a{1.0f}, b{1.0f, 2.0f};
  std::vector<std::span<float>> mismatched{std::span<float>(a),
                                           std::span<float>(b)};
  EXPECT_THROW(collective_mean(Topology::kAllReduce, mismatched),
               std::invalid_argument);
  std::vector<std::span<float>> none;
  EXPECT_THROW(collective_mean(Topology::kParameterServer, none),
               std::invalid_argument);
}

TEST(Collective, CostTimesTheBottleneckAtTheBandwidth) {
  // 1 MiB buffers at 1 MiB/s: seconds equal bottleneck MiB (Eqs. 2-4).
  constexpr std::uint64_t kMiB = 1024 * 1024;
  const auto ps = collective_cost(Topology::kParameterServer, 2, kMiB, 1.0);
  EXPECT_EQ(ps.bottleneck_bytes, 2 * kMiB);
  EXPECT_EQ(ps.total_bytes, 4 * kMiB);
  EXPECT_DOUBLE_EQ(ps.seconds, 2.0);
  const auto ar = collective_cost(Topology::kAllReduce, 3, kMiB, 1.0);
  EXPECT_EQ(ar.bottleneck_bytes, 2 * kMiB);
  EXPECT_EQ(ar.total_bytes, 6 * kMiB);
  EXPECT_DOUBLE_EQ(ar.seconds, 2.0);
  const auto rar = collective_cost(Topology::kRingAllReduce, 4, kMiB, 1.0);
  EXPECT_EQ(rar.bottleneck_bytes, 3 * kMiB / 2);
  EXPECT_EQ(rar.total_bytes, 6 * kMiB);
  EXPECT_DOUBLE_EQ(rar.seconds, 1.5);
  // A ring of one moves nothing.
  const auto solo = collective_cost(Topology::kRingAllReduce, 1, kMiB, 1.0);
  EXPECT_EQ(solo.total_bytes, 0u);
  EXPECT_DOUBLE_EQ(solo.seconds, 0.0);
}

TEST(Collective, CostRejectsNoWorkers) {
  for (const Topology topo : {Topology::kParameterServer, Topology::kAllReduce,
                              Topology::kRingAllReduce}) {
    EXPECT_THROW(collective_cost(topo, 0, 64, 1.0), std::invalid_argument);
    EXPECT_THROW(collective_cost(topo, -3, 64, 1.0), std::invalid_argument);
  }
}

// ------------------------------------------------------------ secure agg --
TEST(SecureAgg, MasksCancelInTheSum) {
  const int k = 5;
  const std::size_t n = 64;
  Rng rng(3);
  std::vector<std::vector<float>> updates(k, std::vector<float>(n));
  std::vector<float> plain_mean(n, 0.0f);
  for (auto& u : updates) {
    for (auto& x : u) x = rng.gaussian(0, 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& u : updates) plain_mean[i] += u[i];
    plain_mean[i] /= static_cast<float>(k);
  }

  const SecAggSession sec({0, 1, 2, 3, 4}, 0xFEED);
  std::vector<std::vector<std::uint64_t>> masked(
      k, std::vector<std::uint64_t>(n, 0));
  for (int c = 0; c < k; ++c) {
    sec.mask_update_into(c, updates[static_cast<std::size_t>(c)],
                         masked[static_cast<std::size_t>(c)],
                         kernels::default_context());
  }

  // Individual masked updates decode to garbage...
  const double scale = sec.fixed_point_scale();
  double distortion = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double decoded =
        static_cast<double>(static_cast<std::int64_t>(masked[0][i])) / scale;
    distortion += std::min(1e6, std::abs(decoded - updates[0][i]));
  }
  EXPECT_GT(distortion / n, 0.5);

  // ...but the decoded mean of the wrapped sum matches the plain mean up
  // to fixed-point rounding.
  std::vector<std::uint64_t> sum(n, 0);
  for (const auto& m : masked) {
    for (std::size_t i = 0; i < n; ++i) sum[i] += m[i];  // wrapping
  }
  std::vector<float> mean(n, 0.0f);
  sec.decode_mean(sum, k, mean, kernels::default_context());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mean[i], plain_mean[i], 1e-6f);
  }
}

TEST(SecureAgg, Validation) {
  EXPECT_THROW(SecAggSession({}, 0), std::invalid_argument);
  const SecAggSession sec({0, 1, 2}, 1);
  const auto& ctx = kernels::default_context();
  std::vector<float> buf(4, 0.0f);
  std::vector<std::uint64_t> out(4, 0);
  EXPECT_THROW(sec.mask_update_into(3, buf, out, ctx), std::out_of_range);
  EXPECT_THROW(sec.mask_update_into(-1, buf, out, ctx), std::out_of_range);
  std::vector<std::uint64_t> ragged(3, 0);
  EXPECT_THROW(sec.mask_update_into(0, buf, ragged, ctx),
               std::invalid_argument);
}

// ------------------------------------------------------------- cost model --
TEST(TrafficRatio, FractionsOfEqs2To4) {
  for (const int k : {1, 2, 7, 300}) {
    const auto uk = static_cast<std::uint64_t>(k);
    const TrafficRatio ps = traffic_ratio(Topology::kParameterServer, k);
    EXPECT_EQ(ps.num, uk);
    EXPECT_EQ(ps.den, 1u);
    const TrafficRatio ar = traffic_ratio(Topology::kAllReduce, k);
    EXPECT_EQ(ar.num, uk - 1);
    EXPECT_EQ(ar.den, 1u);
    const TrafficRatio rar = traffic_ratio(Topology::kRingAllReduce, k);
    EXPECT_EQ(rar.num, 2 * (uk - 1));
    EXPECT_EQ(rar.den, uk);
  }
  EXPECT_THROW(traffic_ratio(Topology::kAllReduce, 0), std::invalid_argument);
}

// The four expressions of Eqs. 2-4 that traffic_ratio() replaced, copied
// verbatim: the wall-time model's three per-topology comm times (theta =
// 100), ddp_bytes_per_step_mb, the round autotuner's ranking factor and
// collective_cost.  Every home must keep reproducing them bit for bit.
namespace former {

double ps_seconds(double bandwidth_mbps, int clients, double model_mb) {
  if (clients <= 1) return 0.0;
  double bandwidth = bandwidth_mbps;
  if (clients > 100) {
    bandwidth *= static_cast<double>(100) / clients;
  }
  return static_cast<double>(clients) * model_mb / bandwidth;
}

double ar_seconds(double bandwidth_mbps, int clients, double model_mb) {
  if (clients <= 1) return 0.0;
  return static_cast<double>(clients - 1) * model_mb / bandwidth_mbps;
}

double rar_seconds(double bandwidth_mbps, int clients, double model_mb) {
  if (clients <= 1) return 0.0;
  return 2.0 * model_mb * static_cast<double>(clients - 1) /
         (static_cast<double>(clients) * bandwidth_mbps);
}

double ddp_bytes_per_step_mb(int workers, double model_mb) {
  if (workers <= 1) return 0.0;
  return 2.0 * model_mb * static_cast<double>(workers - 1) /
         static_cast<double>(workers);
}

double tuner_factor(Topology t, int k) {
  const double kd = std::max(1, k);
  switch (t) {
    case Topology::kParameterServer: return kd;
    case Topology::kAllReduce: return kd - 1.0;
    case Topology::kRingAllReduce: return 2.0 * (kd - 1.0) / kd;
  }
  return kd;
}

CollectiveReport collective_cost(Topology topology, int workers,
                                 std::uint64_t bytes, double bandwidth_mbps) {
  const auto k = static_cast<std::uint64_t>(workers);
  CollectiveReport r;
  switch (topology) {
    case Topology::kParameterServer:
      r.bottleneck_bytes = k * bytes;
      r.total_bytes = 2ull * k * bytes;
      break;
    case Topology::kAllReduce:
      r.bottleneck_bytes = (k - 1) * bytes;
      r.total_bytes = k * (k - 1) * bytes;
      break;
    case Topology::kRingAllReduce:
      r.bottleneck_bytes = 2ull * bytes * (k - 1) / k;
      r.total_bytes = r.bottleneck_bytes * k;
      break;
  }
  r.seconds = static_cast<double>(r.bottleneck_bytes) /
              (bandwidth_mbps * 1024.0 * 1024.0);
  return r;
}

}  // namespace former

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TrafficRatio, EveryHomeMatchesTheFormerArithmeticBitForBit) {
  // K = 1..300 covers single-client rounds and Eq. 2's congestion branch
  // (K > theta = 100).  S and B are log-uniform over eight and six decades;
  // byte counts span every magnitude up to 2^64, so u64 products wrap.
  constexpr Topology kAll[] = {Topology::kParameterServer,
                               Topology::kAllReduce,
                               Topology::kRingAllReduce};
  constexpr int kPairsPerK = 1000;
  Rng rng(0xB1);
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::string first;
  auto check = [&](bool same, const char* what, Topology t, int k, int i) {
    ++checked;
    if (same || mismatches++ > 0) return;
    first = std::string(what) + " " + topology_name(t) +
            " k=" + std::to_string(k) + " pair=" + std::to_string(i);
  };
  for (int k = 1; k <= 300; ++k) {
    for (const Topology t : kAll) {
      check(same_bits(traffic_ratio(t, k).value(),
                      former::tuner_factor(t, k)),
            "tuner key", t, k, -1);
    }
    for (int i = 0; i < kPairsPerK; ++i) {
      const double s_mb = std::pow(10.0, -3.0 + 8.0 * rng.next_double());
      const double b_mbps = std::pow(10.0, -1.0 + 6.0 * rng.next_double());
      const std::uint64_t bytes =
          rng.next_u64() >> static_cast<int>(rng.next_below(64));
      const WallTimeModel wall(b_mbps);
      check(same_bits(wall.comm_time(Topology::kParameterServer, k, s_mb),
                      former::ps_seconds(b_mbps, k, s_mb)),
            "comm_time", Topology::kParameterServer, k, i);
      check(same_bits(wall.comm_time(Topology::kAllReduce, k, s_mb),
                      former::ar_seconds(b_mbps, k, s_mb)),
            "comm_time", Topology::kAllReduce, k, i);
      check(same_bits(wall.comm_time(Topology::kRingAllReduce, k, s_mb),
                      former::rar_seconds(b_mbps, k, s_mb)),
            "comm_time", Topology::kRingAllReduce, k, i);
      check(same_bits(ddp_bytes_per_step_mb(k, s_mb),
                      former::ddp_bytes_per_step_mb(k, s_mb)),
            "ddp_bytes_per_step_mb", Topology::kRingAllReduce, k, i);
      for (const Topology t : kAll) {
        const CollectiveReport now = collective_cost(t, k, bytes, b_mbps);
        const CollectiveReport was =
            former::collective_cost(t, k, bytes, b_mbps);
        check(now.bottleneck_bytes == was.bottleneck_bytes,
              "collective_cost bottleneck", t, k, i);
        check(now.total_bytes == was.total_bytes, "collective_cost total", t,
              k, i);
        check(same_bits(now.seconds, was.seconds), "collective_cost seconds",
              t, k, i);
      }
    }
  }
  EXPECT_EQ(checked, 300u * (3 + kPairsPerK * 13u));
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(WallTimeModel, MatchesAppendixB1Equations) {
  WallTimeModel model(1250.0);  // 10 Gbps
  const double s_mb = 500.0;  // model size
  constexpr Topology kPs = Topology::kParameterServer;

  // Eq. 1.
  EXPECT_DOUBLE_EQ(model.local_time(512, 2.0), 256.0);
  // Eq. 2: K*S/B.
  EXPECT_DOUBLE_EQ(model.comm_time(kPs, 8, s_mb), 8.0 * 500.0 / 1250.0);
  // Eq. 3: (K-1)*S/B.
  EXPECT_DOUBLE_EQ(model.comm_time(Topology::kAllReduce, 8, s_mb),
                   7.0 * 500.0 / 1250.0);
  // Eq. 4: 2S(K-1)/(KB).
  EXPECT_DOUBLE_EQ(model.comm_time(Topology::kRingAllReduce, 8, s_mb),
                   2.0 * 500.0 * 7.0 / (8.0 * 1250.0));
  // Single client: no communication.
  EXPECT_DOUBLE_EQ(model.comm_time(kPs, 1, s_mb), 0.0);
  // Eq. 5/6.
  EXPECT_DOUBLE_EQ(
      model.total_time(Topology::kRingAllReduce, 8, s_mb, 512, 2.0, 10),
      10.0 * (256.0 + 2.0 * 500.0 * 7.0 / (8.0 * 1250.0)));
}

TEST(WallTimeModel, TopologyOrderingAtScale) {
  WallTimeModel model(1250.0);
  const double s = 500.0;
  for (int k : {2, 4, 8, 16}) {
    EXPECT_LE(model.comm_time(Topology::kRingAllReduce, k, s),
              model.comm_time(Topology::kAllReduce, k, s) + 1e-12);
    EXPECT_LE(model.comm_time(Topology::kAllReduce, k, s),
              model.comm_time(Topology::kParameterServer, k, s) + 1e-12);
  }
}

TEST(WallTimeModel, CongestionKicksInBeyondTheta) {
  ASSERT_EQ(kCongestionThreshold, 100);
  WallTimeModel model(1000.0);
  const double below = model.comm_time(Topology::kParameterServer, 100, 10.0);
  const double above = model.comm_time(Topology::kParameterServer, 200, 10.0);
  // Above theta, effective bandwidth halves -> time quadruples vs 2x clients.
  EXPECT_NEAR(above / below, 4.0, 1e-9);
}

TEST(CostModelHelpers, ModelSizeAndDdpTraffic) {
  EXPECT_NEAR(model_size_mb(1000000, 4.0), 3.8147, 1e-3);  // 4 MB / 1.048576
  EXPECT_DOUBLE_EQ(ddp_bytes_per_step_mb(1, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(ddp_bytes_per_step_mb(4, 100.0), 150.0);
}

TEST(WallTimeModel, RejectsNonPositiveConfigAndThroughput) {
  EXPECT_THROW(WallTimeModel{0.0}, std::invalid_argument);
  EXPECT_THROW(WallTimeModel{-1.0}, std::invalid_argument);
  const WallTimeModel model(1250.0);
  EXPECT_THROW(model.local_time(16, 0.0), std::invalid_argument);
  EXPECT_THROW(model.local_time(16, -2.0), std::invalid_argument);
}

TEST(WallTimeModel, RoundTimeComposesLocalPlusComm) {
  WallTimeModel model(1250.0);
  const double s = 500.0;
  for (const Topology t : {Topology::kParameterServer, Topology::kAllReduce,
                           Topology::kRingAllReduce}) {
    EXPECT_DOUBLE_EQ(model.round_time(t, 8, s, 512, 2.0),
                     model.local_time(512, 2.0) + model.comm_time(t, 8, s));
    // Single-client rounds have no communication term (paper excludes N=1).
    EXPECT_DOUBLE_EQ(model.round_time(t, 1, s, 512, 2.0),
                     model.local_time(512, 2.0));
  }
}

// ------------------------------------------- chunked wire / parallel path --

/// Restores the process-wide chunk size after a test that changes it.
struct ChunkGuard {
  std::size_t saved = wire_chunk_bytes();
  ~ChunkGuard() { set_wire_chunk_bytes(saved); }
};

TEST(Crc32Combine, FoldedChunkCrcsMatchWholeBufferCrc) {
  const auto data = random_bytes(65537, 9, 0.4);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{37},
                            std::size_t{32768}, data.size() - 1, data.size()}) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), crc32(all))
        << "split=" << split;
  }
  // Three-way fold in order, like the chunked encoder does.
  const auto a = all.first(10000);
  const auto b = all.subspan(10000, 30000);
  const auto c = all.subspan(40000);
  std::uint32_t folded = crc32(a);
  folded = crc32_combine(folded, crc32(b), b.size());
  folded = crc32_combine(folded, crc32(c), c.size());
  EXPECT_EQ(folded, crc32(all));
}

// Reference: zlib's original GF(2) matrix-squaring crc32_combine.  Per
// call it squares its way from the one-zero-bit operator to the operator
// for 2^k zero bytes, applying the k-th one to crc_a when bit k of the
// length is set.  Here the chain of squares is built once, so the test's
// 20,000 triples cost milliseconds instead of over a second.
std::uint32_t gf2_matrix_times(const std::uint32_t* mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  int i = 0;
  while (vec != 0) {
    if (vec & 1u) sum ^= mat[i];
    vec >>= 1;
    ++i;
  }
  return sum;
}

void gf2_matrix_square(std::uint32_t* square, const std::uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = gf2_matrix_times(mat, mat[n]);
}

class MatrixCrcCombine {
 public:
  MatrixCrcCombine() {
    std::uint32_t odd[32];   // one zero bit
    std::uint32_t even[32];
    odd[0] = 0xedb88320u;
    std::uint32_t row = 1;
    for (int n = 1; n < 32; ++n) {
      odd[n] = row;
      row <<= 1;
    }
    gf2_matrix_square(even, odd);         // two zero bits
    gf2_matrix_square(odd, even);         // four zero bits
    gf2_matrix_square(ops_[0], odd);      // one zero byte
    for (int k = 1; k < 64; ++k) gf2_matrix_square(ops_[k], ops_[k - 1]);
  }

  std::uint32_t operator()(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) const {
    if (len_b == 0) return crc_a;
    for (int k = 0; len_b != 0; ++k, len_b >>= 1) {
      if (len_b & 1u) crc_a = gf2_matrix_times(ops_[k], crc_a);
    }
    return crc_a ^ crc_b;
  }

 private:
  std::uint32_t ops_[64][32];  // ops_[k] feeds 2^k zero bytes
};

TEST(Crc32Combine, MatchesMatrixSquaringCombineOnRandomTriples) {
  const MatrixCrcCombine reference;
  // Lengths of 2^29 bytes and up take the x^(2^k) table index past 31,
  // where it wraps (x^(2^32) = x mod P).
  for (const std::uint64_t len :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{1} << 32, (std::uint64_t{1} << 40) - 1}) {
    for (const std::uint32_t crc_a : {0u, 1u, 0xffffffffu, 0x9e3779b9u}) {
      EXPECT_EQ(crc32_combine(crc_a, 0x12345678u, len),
                reference(crc_a, 0x12345678u, len))
          << "len=" << len << " crc_a=" << crc_a;
    }
  }
  // Seeded triples.  Each length is uniform below 2^w for a width w uniform
  // in [1, 40], so chunk-sized lengths are drawn as often as huge ones.
  Rng rng(0xC3C03B1EULL);
  int mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto crc_a = static_cast<std::uint32_t>(rng.next_u64());
    const auto crc_b = static_cast<std::uint32_t>(rng.next_u64());
    const auto width = static_cast<int>(rng.next_below(40)) + 1;
    const std::uint64_t len = rng.next_u64() >> (64 - width);
    if (crc32_combine(crc_a, crc_b, len) != reference(crc_a, crc_b, len)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

std::vector<float> sparse_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_bool(0.5) ? 0.0f : rng.gaussian(0.0f, 1.0f);
  return v;
}

class ChunkedMessage : public ::testing::TestWithParam<const char*> {};

TEST_P(ChunkedMessage, ChunkedAndWholeBufferEncodesRoundTripIdentically) {
  ChunkGuard guard;
  Message m;
  m.type = MessageType::kClientUpdate;
  m.round = 3;
  m.codec = GetParam();
  m.payload = sparse_floats(50000, 17);
  m.metadata["x"] = 1.5;

  set_wire_chunk_bytes(0);  // whole buffer, one chunk
  const auto whole = m.encode();
  set_wire_chunk_bytes(4096);  // ~49 chunks
  const auto chunked = m.encode();

  EXPECT_EQ(Message::decode(whole).payload, m.payload);
  EXPECT_EQ(Message::decode(chunked).payload, m.payload);

  // For the identity codec the chunk data is the raw payload either way, so
  // the folded per-chunk CRC must equal the whole-buffer CRC exactly.
  if (std::string(GetParam()).empty()) {
    std::uint32_t crc_whole = 0;
    std::uint32_t crc_chunked = 0;
    std::memcpy(&crc_whole, whole.data() + whole.size() - 4, 4);
    std::memcpy(&crc_chunked, chunked.data() + chunked.size() - 4, 4);
    EXPECT_EQ(crc_chunked, crc_whole);
  }
}

TEST_P(ChunkedMessage, ParallelEncodeDecodeBitIdenticalToSerial) {
  ChunkGuard guard;
  set_wire_chunk_bytes(2048);
  ThreadPool pool(4);

  Message m;
  m.codec = GetParam();
  m.payload = sparse_floats(30000, 23);

  WireScratch serial_scratch, parallel_scratch;
  const auto serial = m.encode_into(serial_scratch, nullptr);
  const auto parallel = m.encode_into(parallel_scratch, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), serial.size()), 0);

  Message out;
  Message::decode_into(parallel, out, &pool);
  EXPECT_EQ(out.payload, m.payload);

  // Scratch reuse: a second encode of a different payload through the same
  // scratch must still be exact.
  m.payload = sparse_floats(10000, 29);
  const auto again = m.encode_into(parallel_scratch, &pool);
  Message::decode_into(again, out, nullptr);
  EXPECT_EQ(out.payload, m.payload);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, ChunkedMessage,
                         ::testing::Values("", "rle0"));

TEST(Message, QuantizedChunksAppendInOrderStraightIntoTheImage) {
  // A codec appends its chunks in order straight into the image: after the
  // header and length table come exactly each chunk's own compress()
  // output, the NaN chunk's raw fallback included, then the CRC; the image
  // decodes bit for bit to what each chunk decompresses to.
  ChunkGuard guard;
  set_wire_chunk_bytes(4096);  // 1024 floats per chunk
  constexpr std::size_t kChunk = 1024;
  Rng rng(61);
  std::vector<float> payload(5 * kChunk + 300);  // six chunks, a short last
  for (auto& x : payload) x = rng.gaussian(0.0f, 0.1f);
  payload[2 * kChunk + 17] = std::numeric_limits<float>::quiet_NaN();
  const auto* raw = reinterpret_cast<const std::uint8_t*>(payload.data());
  for (const char* name : {"q8", "q4"}) {
    SCOPED_TRACE(name);
    const Codec* codec = codec_by_name(name);
    Message m;
    m.type = MessageType::kClientUpdate;
    m.round = 5;
    m.sender = 2;
    m.codec = name;
    m.payload_view = payload;
    m.metadata["tokens"] = 64.0;
    WireScratch image;
    m.encode_into(image);

    Message header;
    WireView view;
    Message::validate_wire(image.wire, header, view);
    ASSERT_EQ(view.n_chunks(), 6u);
    std::vector<std::uint8_t> want(
        image.wire.begin(),
        image.wire.begin() + static_cast<std::ptrdiff_t>(image.payload_offset));
    for (std::size_t c = 0; c < view.n_chunks(); ++c) {
      const auto chunk =
          codec->compress({raw + view.raw_off(c), view.raw_len(c)});
      EXPECT_EQ(chunk[0], c == 2 ? 1 : 0) << "chunk " << c;  // mode byte
      EXPECT_EQ(view.lens[c], chunk.size()) << "chunk " << c;
      want.insert(want.end(), chunk.begin(), chunk.end());
    }
    const std::uint32_t crc =
        crc32({want.data() + image.payload_offset,
               want.size() - image.payload_offset});
    const auto* cp = reinterpret_cast<const std::uint8_t*>(&crc);
    want.insert(want.end(), cp, cp + sizeof(crc));
    EXPECT_EQ(image.wire, want);

    std::vector<float> expect(payload.size());
    auto* expect8 = reinterpret_cast<std::uint8_t*>(expect.data());
    for (std::size_t c = 0; c < view.n_chunks(); ++c) {
      codec->decompress_into(view.chunk(c),
                             {expect8 + view.raw_off(c), view.raw_len(c)});
    }
    Message out;
    Message::decode_into(image.wire, out);
    ASSERT_EQ(out.payload.size(), payload.size());
    EXPECT_EQ(0, std::memcmp(out.payload.data(), expect.data(),
                             expect.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(out.payload.data() + 2 * kChunk,
                             payload.data() + 2 * kChunk,
                             kChunk * sizeof(float)));
  }
}

TEST(Message, PayloadViewEncodesIdenticallyToOwnedPayload) {
  const auto data = sparse_floats(5000, 41);
  Message owned, borrowed;
  owned.codec = borrowed.codec = "rle0";
  owned.round = borrowed.round = 9;
  owned.payload = data;
  borrowed.payload_view = data;  // no copy
  EXPECT_TRUE(borrowed.payload.empty());
  const auto a = owned.encode();
  const auto b = borrowed.encode();
  EXPECT_EQ(a, b);
  EXPECT_EQ(Message::decode(b).payload, data);
}

TEST(SimLink, ZeroCopyTransmitMatchesCopyingTransmit) {
  const auto data = sparse_floats(4000, 47);
  Message m;
  m.codec = "rle0";
  m.payload_view = data;
  SimLink a("copying", 1.0), b("zero-copy", 1.0);
  WireScratch image;
  m.encode_into(image);
  Message via_copy;  // a fresh message: nothing to reuse
  a.transmit(m, image, via_copy);
  Message via_reuse;
  b.transmit(m, image, via_reuse);
  m.encode_into(image);  // reuse the scratch ...
  b.transmit(m, image, via_reuse);  // ... and the payload buffer
  EXPECT_EQ(via_copy.payload, data);
  EXPECT_EQ(via_reuse.payload, data);
  EXPECT_EQ(a.stats().wire_bytes * 2, b.stats().wire_bytes);
  EXPECT_EQ(a.stats().payload_bytes * 2, b.stats().payload_bytes);
}

// Parallel collectives must match serial bit-for-bit, including when K does
// not divide the buffer size (uneven ring chunks, uneven shards).
TEST(CollectiveMean, ParallelMatchesSerialBitExactly) {
  ThreadPool pool(4);
  const kernels::KernelContext par(&pool, 4, /*grain=*/1);
  const kernels::KernelContext ser;
  for (const int k : {2, 3, 7, 8}) {
    const std::size_t n = 1013;  // prime: k never divides it
    std::vector<std::vector<float>> base(static_cast<std::size_t>(k));
    Rng rng(1000 + static_cast<std::uint64_t>(k));
    for (auto& b : base) {
      b.resize(n);
      for (auto& x : b) x = rng.gaussian(0.0f, 1.0f);
    }
    for (const Topology topo :
         {Topology::kParameterServer, Topology::kAllReduce,
          Topology::kRingAllReduce}) {
      auto serial = base;
      auto parallel = base;
      auto spans_of = [](std::vector<std::vector<float>>& v) {
        std::vector<std::span<float>> s;
        for (auto& b : v) s.emplace_back(b);
        return s;
      };
      collective_mean(topo, spans_of(serial), ser);
      collective_mean(topo, spans_of(parallel), par);
      for (int w = 0; w < k; ++w) {
        ASSERT_EQ(0, std::memcmp(serial[static_cast<std::size_t>(w)].data(),
                                 parallel[static_cast<std::size_t>(w)].data(),
                                 n * sizeof(float)))
            << "k=" << k << " topo=" << static_cast<int>(topo) << " w=" << w;
      }
    }
  }
}

// ------------------------------------------- wire corruption & link retry --

std::vector<std::uint8_t> encoded_update(const char* codec_name) {
  Message m;
  m.type = MessageType::kClientUpdate;
  m.round = 3;
  m.sender = 5;
  m.codec = codec_name;
  m.metadata["train_loss"] = 1.5;
  m.payload = sparse_floats(2048, 91);
  return m.encode();
}

TEST(Message, FlippedHeaderMagicRejected) {
  auto wire = encoded_update("");
  wire[1] ^= 0x10;  // inside the 4-byte magic
  EXPECT_THROW(Message::decode(wire), std::runtime_error);
}

TEST(Message, FlippedChunkLengthTableRejected) {
  // Identity codec: the wire is header || length table || raw payload ||
  // CRC, so the single chunk's 8-byte length entry ends exactly
  // raw_bytes + 4 bytes before the end.  Corrupting it must fail decode
  // structurally (truncated table) or via CRC — never return garbage.
  const auto wire = encoded_update("");
  const std::size_t raw_bytes = 2048 * sizeof(float);
  const std::size_t len_entry = wire.size() - raw_bytes - sizeof(std::uint32_t) -
                                sizeof(std::uint64_t);
  for (std::size_t byte = 0; byte < sizeof(std::uint64_t); ++byte) {
    auto corrupted = wire;
    corrupted[len_entry + byte] ^= 0x80;
    Message out;
    EXPECT_THROW(Message::decode_into(corrupted, out, nullptr),
                 std::runtime_error)
        << "length-table byte " << byte;
  }
}

TEST(Message, FlippedChunkBodyRejected) {
  for (const char* codec : {"", "rle0", "q8", "q4"}) {
    auto wire = encoded_update(codec);
    auto corrupted = wire;
    corrupted[wire.size() - 64] ^= 0x01;  // well inside the chunk bytes
    Message out;
    EXPECT_THROW(Message::decode_into(corrupted, out, nullptr),
                 std::runtime_error)
        << "codec=" << codec;
  }
}

TEST(Message, FlippedCrcFieldRejected) {
  for (const char* codec : {"", "rle0", "q8", "q4"}) {
    auto wire = encoded_update(codec);
    auto corrupted = wire;
    corrupted[wire.size() - 1] ^= 0x40;  // trailing CRC32 field
    Message out;
    EXPECT_THROW(Message::decode_into(corrupted, out, nullptr),
                 std::runtime_error)
        << "codec=" << codec;
  }
}

TEST(SimLink, RetryRecoversFromDropAndCorruption) {
  SimLink link("flaky", 1.0);
  RetryPolicy policy;
  policy.max_attempts = 4;
  link.set_retry_policy(policy);
  // Attempt 1 is dropped in flight, attempt 2 arrives corrupted, attempt 3
  // is clean — the message must get through with the faults visible only
  // in the stats.
  link.set_fault_hook([](const Message&, int attempt) {
    LinkFault f;
    if (attempt == 1) f.drop = true;
    if (attempt == 2) f.corrupt = 0xBADC0DEULL;
    return f;
  });
  Message m;
  m.payload = sparse_floats(1024, 17);
  Message out;
  link.transmit(m, encoded(m), out);
  EXPECT_EQ(out.payload, m.payload);
  EXPECT_EQ(link.stats().messages, 1u);
  EXPECT_EQ(link.stats().retries, 2u);
  EXPECT_EQ(link.stats().send_failures, 1u);
  EXPECT_EQ(link.stats().corrupt_chunks, 1u);
  EXPECT_EQ(link.stats().aborted_messages, 0u);
  EXPECT_GT(link.stats().backoff_seconds, 0.0);
}

TEST(SimLink, InjectedCorruptionIsAlwaysDetectedAndRetransmitted) {
  // Every injected bit flip lands in the CRC-protected wire region, so the
  // receiver must reject it and the retry must deliver the exact payload —
  // corruption can never silently alter what the client receives.
  for (const char* codec : {"", "rle0"}) {
    SimLink link(codec[0] ? codec : "identity", 1.0);
    std::uint64_t expected_corrupt = 0;
    for (std::uint64_t seed : {1ull, 0x7Full, 0xDEADBEEFull,
                               0xFFFFFFFFFFFFFFFFull, 0x100000001ull}) {
      link.set_fault_hook([seed](const Message&, int attempt) {
        LinkFault f;
        if (attempt == 1) f.corrupt = seed;
        return f;
      });
      Message m;
      m.codec = codec;
      m.payload = sparse_floats(512, seed % 97 + 1);
      Message out;
      link.transmit(m, encoded(m), out);
      EXPECT_EQ(out.payload, m.payload) << codec << " seed=" << seed;
      ++expected_corrupt;
      EXPECT_EQ(link.stats().corrupt_chunks, expected_corrupt);
      EXPECT_EQ(link.stats().retries, expected_corrupt);
    }
  }
}

TEST(SimLink, SharedImageIsNeverWrittenAndMatchesTransmit) {
  // One pre-encoded image serves every link.  A corrupted attempt flips
  // its bit in a private copy, so the image stays byte-identical, the
  // retry delivers the clean bytes, and the stats and every span's sim
  // fields equal those of a transmit of the link's own fresh encode.
  for (const char* codec : {"", "q8"}) {
    SCOPED_TRACE(codec);
    Message m;
    m.round = 3;
    m.sender = 1;
    m.codec = codec;
    m.payload = sparse_floats(70000, 29);  // > one 256 KiB wire chunk
    m.metadata["local_steps"] = 4.0;
    WireScratch image;
    m.encode_into(image);
    const std::vector<std::uint8_t> pristine = image.wire;

    RetryPolicy policy;
    policy.max_attempts = 4;
    struct Run {
      LinkStats stats;
      std::vector<obs::TraceEvent> events;
    };
    const auto run = [&](const WireScratch& sent, Message& out) {
      obs::Tracer tracer;
      SimLink link("shared", 1.0);
      link.set_retry_policy(policy);
      link.set_fault_hook([](const Message&, int attempt) {
        LinkFault f;
        f.corrupt = attempt == 1 ? 0xBADC0DEULL
                                 : (attempt == 3 ? 0x100000001ULL : 0);
        f.drop = attempt == 2;
        return f;
      });
      link.transmit(m, sent, out, {obs::RoundTrace(&tracer, 0), 2, 5.0});
      return Run{link.stats(), tracer.drain()};
    };
    Message via_image, via_encode;
    const Run a = run(image, via_image);
    const Run b = run(encoded(m), via_encode);
    EXPECT_EQ(image.wire, pristine);
    EXPECT_EQ(a.stats.corrupt_chunks, 2u);
    EXPECT_EQ(a.stats.send_failures, 1u);
    EXPECT_EQ(a.stats.retries, 3u);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(via_image.payload, via_encode.payload);
    EXPECT_EQ(via_image.metadata, m.metadata);
    if (codec[0] == '\0') {
      EXPECT_EQ(via_image.payload, m.payload);
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      const obs::TraceEvent& x = a.events[i];
      const obs::TraceEvent& y = b.events[i];
      EXPECT_TRUE(x.kind == y.kind && x.round == y.round &&
                  x.actor == y.actor && x.detail == y.detail &&
                  x.sim_begin == y.sim_begin && x.sim_end == y.sim_end)
          << "span " << i;
    }
  }
}

TEST(SimLink, EmptyPayloadCorruptionStillDetected) {
  SimLink link("empty", 1.0);
  link.set_fault_hook([](const Message&, int attempt) {
    LinkFault f;
    if (attempt == 1) f.corrupt = 42;  // lands on the CRC field itself
    return f;
  });
  Message m;  // no payload: zero chunks, wire = header + CRC
  Message out;
  link.transmit(m, encoded(m), out);
  EXPECT_TRUE(out.payload.empty());
  EXPECT_EQ(link.stats().corrupt_chunks, 1u);
}

TEST(SimLink, AbortsAfterMaxAttempts) {
  SimLink link("dead", 1.0);
  RetryPolicy policy;
  policy.max_attempts = 3;
  link.set_retry_policy(policy);
  link.set_fault_hook([](const Message&, int) {
    LinkFault f;
    f.drop = true;  // the peer is gone
    return f;
  });
  Message m;
  m.payload = {1.0f, 2.0f};
  Message out;
  EXPECT_THROW(link.transmit(m, encoded(m), out), TransmitError);
  EXPECT_EQ(link.stats().send_failures, 3u);
  EXPECT_EQ(link.stats().retries, 2u);
  EXPECT_EQ(link.stats().aborted_messages, 1u);
}

TEST(SimLink, MessageDeadlineCutsRetriesShort) {
  SimLink link("slow", 1.0);
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.backoff_base_s = 10.0;  // one backoff blows the deadline
  policy.message_deadline_s = 1.0;
  link.set_retry_policy(policy);
  link.set_fault_hook([](const Message&, int) {
    LinkFault f;
    f.drop = true;
    return f;
  });
  Message m;
  m.payload = {3.0f};
  Message out;
  EXPECT_THROW(link.transmit(m, encoded(m), out), TransmitError);
  EXPECT_EQ(link.stats().aborted_messages, 1u);
  EXPECT_LT(link.stats().send_failures, 100u);
}

TEST(SimLink, RetryTimelineIsDeterministic) {
  // Two links with the same policy and fault schedule must book identical
  // simulated time — backoff jitter is a pure function of the message
  // identity, never of wall clock.
  auto run = [] {
    SimLink link("det", 1.0);
    RetryPolicy policy;
    policy.max_attempts = 5;
    link.set_retry_policy(policy);
    link.set_fault_hook([](const Message&, int attempt) {
      LinkFault f;
      f.drop = attempt <= 3;
      return f;
    });
    Message m;
    m.round = 7;
    m.sender = 2;
    m.payload = sparse_floats(256, 5);
    Message out;
    link.transmit(m, encoded(m), out);
    return link.stats();
  };
  const LinkStats a = run();
  const LinkStats b = run();
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(SecureAgg, ParallelSumIntoMatchesSerialBitExactly) {
  // The server's secure sum -- every survivor masked into one accumulator,
  // a dropped member's masks stripped, the ring sum decoded -- is
  // bit-identical serial vs pooled.
  ThreadPool pool(4);
  const kernels::KernelContext par(&pool, 4, /*grain=*/1);
  const kernels::KernelContext ser;
  const std::size_t n = 997;
  std::vector<std::vector<float>> updates(5);
  Rng rng(77);
  for (auto& u : updates) {
    u.resize(n);
    for (auto& x : u) x = rng.gaussian(0.0f, 2.0f);
  }
  const SecAggSession sec({0, 1, 2, 3, 4}, 0x5EC);
  const std::vector<int> survivors{0, 1, 3, 4};
  const std::vector<int> dropped{2};
  auto secure_mean = [&](const kernels::KernelContext& ctx) {
    std::vector<std::uint64_t> acc(n, 0);
    for (const int c : survivors) {
      sec.mask_update_into(c, updates[static_cast<std::size_t>(c)], acc, ctx);
    }
    sec.recover_dropouts(survivors, dropped, acc, ctx);
    std::vector<float> mean(n, 0.0f);
    sec.decode_mean(acc, static_cast<int>(survivors.size()), mean, ctx);
    return mean;
  };
  const auto serial = secure_mean(ser);
  const auto parallel = secure_mean(par);
  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(), n * sizeof(float)));
  for (std::size_t i = 0; i < n; ++i) {
    double plain = 0.0;
    for (const int c : survivors) {
      plain += updates[static_cast<std::size_t>(c)][i];
    }
    ASSERT_NEAR(serial[i], plain / 4.0, 1e-5) << "i=" << i;
  }
}

}  // namespace
}  // namespace photon
