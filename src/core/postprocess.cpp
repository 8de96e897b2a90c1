#include "core/postprocess.hpp"

#include <stdexcept>

#include "core/privacy.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

namespace photon {

ClipStage::ClipStage(double max_norm) : max_norm_(max_norm) {
  if (max_norm <= 0.0) throw std::invalid_argument("ClipStage: max_norm <= 0");
}

void ClipStage::apply(std::span<float> update,
                      PostProcessReport& report) const {
  const auto& ctx = kernels::default_context();
  const double norm = kernels::l2_norm(ctx, update.data(), update.size());
  report.preclip_norm = norm;
  if (norm > max_norm_ && norm > 0.0) {
    kernels::scale_inplace(ctx, update.data(),
                           static_cast<float>(max_norm_ / norm),
                           update.size());
    report.clipped = true;
  }
}

DpNoiseStage::DpNoiseStage(double noise_multiplier, double max_norm,
                           std::uint64_t seed)
    : stddev_(noise_multiplier * max_norm), seed_(seed) {
  if (noise_multiplier < 0.0 || max_norm <= 0.0) {
    throw std::invalid_argument("DpNoiseStage: bad parameters");
  }
}

void DpNoiseStage::apply(std::span<float> update, PostProcessReport& report,
                         const PostProcessContext& ctx) const {
  report.dp_noise_stddev = stddev_;
  if (stddev_ == 0.0) return;
  // Key the stream on (stage seed, round, client): stateless per element,
  // so a replayed or crash-recovered round injects identical noise.
  const std::uint64_t key = hash_combine(
      hash_combine(seed_, ctx.round),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(ctx.client)) +
          0xD9B4E5ULL);
  privacy::add_gaussian_noise(kernels::default_context(), update, key,
                              stddev_);
}

}  // namespace photon
