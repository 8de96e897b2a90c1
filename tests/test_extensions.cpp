// Update quantization, an extension from paper §6.  The int8 update
// quantizer is the q8 wire codec (QuantCodec(8)); its wire-path contracts
// (error feedback, streamed fan-in) are in test_wire_quant.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "comm/quantization.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

// ----------------------------------------------------------- quantizer --
// The tests below read the q8 chunk layout documented in quantization.hpp:
// u8 mode, u32 n_floats, f32 scale[ceil(n / kBlockFloats)], int8 codes.

std::span<const std::uint8_t> float_bytes(const std::vector<float>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

std::vector<float> q8_round_trip(const std::vector<float>& x,
                                 std::vector<std::uint8_t>& wire) {
  const QuantCodec q8(8);
  q8.compress_into(float_bytes(x), wire);
  std::vector<float> back(x.size());
  q8.decompress_into(wire, {reinterpret_cast<std::uint8_t*>(back.data()),
                            back.size() * sizeof(float)});
  return back;
}

float block_scale(const std::vector<std::uint8_t>& wire, std::size_t block) {
  float scale;
  std::memcpy(&scale, wire.data() + 5 + 4 * block, sizeof(scale));
  return scale;
}

// Round-to-nearest lands within half a grid step (scale / 127) of the
// input; 1% covers the fp32 rounding of the scale factors.
float max_error(float scale) { return scale / 127.0f * 0.5f * 1.01f + 1e-7f; }

TEST(Int8Quantizer, ErrorBoundedByScale) {
  Rng rng(5);
  std::vector<float> update(5000);
  for (auto& x : update) x = rng.gaussian(0.0f, 0.01f);
  std::vector<std::uint8_t> wire;
  const auto back = q8_round_trip(update, wire);
  ASSERT_EQ(wire[0], 0);  // quantized, not raw passthrough
  for (std::size_t i = 0; i < update.size(); ++i) {
    const float scale = block_scale(wire, i / wire_quant::kBlockFloats);
    EXPECT_LE(std::abs(back[i] - update[i]), max_error(scale));
  }
}

TEST(Int8Quantizer, WireBytesRoughlyQuartered) {
  const std::vector<float> update(4096, 0.5f);
  std::vector<std::uint8_t> wire;
  QuantCodec(8).compress_into(float_bytes(update), wire);
  EXPECT_LT(wire.size(), update.size() * sizeof(float) / 3.5);
}

TEST(Int8Quantizer, ZeroAndHugeValuesSurvive) {
  const std::vector<float> update{0.0f, 0.0f, 1e6f, -1e6f};
  std::vector<std::uint8_t> wire;
  const auto back = q8_round_trip(update, wire);
  EXPECT_FLOAT_EQ(back[0], 0.0f);
  EXPECT_FLOAT_EQ(back[1], 0.0f);
  EXPECT_NEAR(back[2], 1e6f, 1e6f / 127.0f);
  EXPECT_NEAR(back[3], -1e6f, 1e6f / 127.0f);
}

TEST(Int8Quantizer, PartialFinalChunkRoundTripsWithinBound) {
  // 1000 floats over 256-float blocks leaves a 232-float final block; its
  // scale and codes must cover exactly the remainder.
  Rng rng(21);
  std::vector<float> update(1000);
  for (auto& x : update) x = rng.gaussian(0.0f, 0.5f);
  std::vector<std::uint8_t> wire;
  const auto back = q8_round_trip(update, wire);
  EXPECT_EQ(wire.size(), 5u + 4u * 4u + update.size());  // 4 = ceil(1000/256)
  EXPECT_EQ(wire_quant::decoded_bytes(wire), update.size() * sizeof(float));
  for (std::size_t b = 0; b < 4; ++b) {
    float max_abs = 0.0f;
    const std::size_t end = std::min<std::size_t>(update.size(), b * 256 + 256);
    for (std::size_t i = b * 256; i < end; ++i) {
      max_abs = std::max(max_abs, std::abs(update[i]));
    }
    EXPECT_EQ(block_scale(wire, b), max_abs) << "block " << b;
  }
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - update[i]),
              max_error(block_scale(wire, i / 256)));
  }
}

TEST(Int8Quantizer, DeterministicModeIsReproducibleAcrossInstances) {
  Rng rng(23);
  std::vector<float> update(700);
  for (auto& x : update) x = rng.gaussian(0.0f, 1.0f);
  std::vector<std::uint8_t> wa, wb, wr;
  QuantCodec(8).compress_into(float_bytes(update), wa);
  QuantCodec(8).compress_into(float_bytes(update), wb);
  codec_by_name("q8")->compress_into(float_bytes(update), wr);
  EXPECT_EQ(wa, wb);
  EXPECT_EQ(wa, wr);
}

TEST(Int8Quantizer, ValidatesInput) {
  EXPECT_THROW(QuantCodec(0), std::invalid_argument);
  EXPECT_THROW(QuantCodec(16), std::invalid_argument);
  const QuantCodec q8(8);
  const std::vector<float> update(10, 0.25f);
  std::vector<std::uint8_t> wire;
  q8.compress_into(float_bytes(update), wire);
  std::vector<std::uint8_t> out(update.size() * sizeof(float));
  auto truncated = wire;
  truncated.resize(truncated.size() - 4);  // codes cut short
  EXPECT_THROW(q8.decompress_into(truncated, out), std::runtime_error);
  std::vector<std::uint8_t> short_out(out.size() - sizeof(float));
  EXPECT_THROW(q8.decompress_into(wire, short_out), std::runtime_error);
  auto bad_mode = wire;
  bad_mode[0] = 7;
  EXPECT_THROW(q8.decompress_into(bad_mode, out), std::runtime_error);
}

TEST(Int8Quantizer, AggregationErrorSmallerThanIndividual) {
  // The mean of K quantized client updates carries ~sqrt(K) less error than
  // one update: rounding errors of distinct updates are independent, which
  // is what makes lossy updates viable in federated averaging.
  Rng rng(7);
  constexpr int kClients = 16;
  constexpr std::size_t kN = 2048;
  std::vector<double> exact(kN, 0.0), approx(kN, 0.0);
  double single_err = 0.0;
  for (int c = 0; c < kClients; ++c) {
    std::vector<float> update(kN);
    for (auto& x : update) x = rng.gaussian(0.0f, 0.01f);
    std::vector<std::uint8_t> wire;
    const auto back = q8_round_trip(update, wire);
    for (std::size_t i = 0; i < kN; ++i) {
      if (c == 0) single_err += std::abs(back[i] - update[i]);
      exact[i] += update[i];
      approx[i] += back[i];
    }
  }
  double mean_err = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    mean_err += std::abs(approx[i] - exact[i]) / kClients;
  }
  EXPECT_LT(mean_err, single_err * 0.6);
}

}  // namespace
}  // namespace photon
