#pragma once
// Client-update post-processing (paper Alg. 1 L28: "gradient clipping,
// compression, or differential privacy noise injection" before returning
// updates to Agg).
//
// LLMClient runs one fixed sequence over the pseudo-gradient: ClipStage,
// then DpNoiseStage, then the wire codec named by
// ClientTrainConfig::link_codec, which the Message layer applies when it
// encodes the update.

#include <cstdint>
#include <span>

namespace photon {

/// Identifies the (round, client) an update belongs to, so DP noise can
/// derive its randomness statelessly: replays, crash recovery, and
/// re-ordered execution reproduce identical bytes.
struct PostProcessContext {
  std::uint32_t round = 0;
  int client = -1;
};

struct PostProcessReport {
  double preclip_norm = 0.0;
  bool clipped = false;
  double dp_noise_stddev = 0.0;
};

/// L2-norm clipping of the whole update (pseudo-gradient).
class ClipStage {
 public:
  explicit ClipStage(double max_norm);
  void apply(std::span<float> update, PostProcessReport& report) const;

 private:
  double max_norm_;
};

/// Gaussian DP noise: sigma = noise_multiplier * max_norm (to pair with a
/// preceding ClipStage for (eps, delta)-DP accounting).  Draws are
/// stateless per (seed, round, client, element) — see core/privacy.hpp —
/// so the same (round, client) always injects the same noise bytes.
class DpNoiseStage {
 public:
  DpNoiseStage(double noise_multiplier, double max_norm, std::uint64_t seed);
  void apply(std::span<float> update, PostProcessReport& report,
             const PostProcessContext& ctx) const;

 private:
  double stddev_;
  std::uint64_t seed_;
};

}  // namespace photon
