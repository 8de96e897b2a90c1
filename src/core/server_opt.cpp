#include "core/server_opt.hpp"

#include <stdexcept>

#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"

namespace photon {
namespace {

void check_sizes(std::span<float> params, std::span<const float> grad) {
  if (params.size() != grad.size()) {
    throw std::invalid_argument("ServerOpt: params/pseudo_grad size mismatch");
  }
}

// Elementwise server updates cost ~16 scalar ops per parameter.
constexpr std::size_t kStepRowCost = 16;

// Shard an elementwise update fn(i0, i1) over the default kernel context.
template <typename Fn>
void for_shards(std::size_t n, Fn&& fn) {
  kernels::default_context().parallel_shards(
      n, kernels::default_context().grain_rows(kStepRowCost),
      [&](int, std::size_t i0, std::size_t i1) { fn(i0, i1); });
}

}  // namespace

void FedAvgOpt::apply(std::span<float> params,
                      std::span<const float> pseudo_grad) {
  check_sizes(params, pseudo_grad);
  // params += (-lr) * g; the sign flip is exact, so this matches
  // params -= lr * g bit for bit.
  const auto& ops = kernels::default_context().simd();
  for_shards(params.size(), [&](std::size_t i0, std::size_t i1) {
    ops.axpy(params.data() + i0, pseudo_grad.data() + i0, i1 - i0, -lr_);
  });
}

void FedMomOpt::apply(std::span<float> params,
                      std::span<const float> pseudo_grad) {
  check_sizes(params, pseudo_grad);
  if (buf_.size() != params.size()) buf_.assign(params.size(), 0.0f);
  const auto& ops = kernels::default_context().simd();
  for_shards(params.size(), [&](std::size_t i0, std::size_t i1) {
    ops.momentum(params.data() + i0, buf_.data() + i0,
                 pseudo_grad.data() + i0, i1 - i0, lr_, momentum_);
  });
}

void FedMomOpt::reset() { buf_.clear(); }

void NesterovOpt::apply(std::span<float> params,
                        std::span<const float> pseudo_grad) {
  check_sizes(params, pseudo_grad);
  if (buf_.size() != params.size()) buf_.assign(params.size(), 0.0f);
  // On the first apply buf is zero, and mu*0 + g == g exactly.
  const auto& ops = kernels::default_context().simd();
  for_shards(params.size(), [&](std::size_t i0, std::size_t i1) {
    ops.nesterov(params.data() + i0, buf_.data() + i0,
                 pseudo_grad.data() + i0, i1 - i0, lr_, momentum_);
  });
}

void NesterovOpt::reset() { buf_.clear(); }

std::unique_ptr<ServerOpt> make_server_opt(const std::string& name, float lr,
                                           float momentum) {
  if (name == "fedavg") return std::make_unique<FedAvgOpt>(lr);
  if (name == "fedmom") return std::make_unique<FedMomOpt>(lr, momentum);
  if (name == "nesterov") return std::make_unique<NesterovOpt>(lr, momentum);
  throw std::invalid_argument("make_server_opt: unknown optimizer " + name);
}

void check_server_opt_state(const std::string& name,
                            std::span<const std::uint8_t> state,
                            std::size_t num_params) {
  BinaryReader r(state);
  if (name == "fedmom" || name == "nesterov") {
    const std::size_t n = r.read_vector<float>().size();
    if (n != 0 && n != num_params) {
      throw std::runtime_error("ServerOpt state: " + name + " buffer holds " +
                               std::to_string(n) + " floats, the model has " +
                               std::to_string(num_params) + " params");
    }
  } else if (name != "fedavg") {
    return;
  }
  if (!r.exhausted()) {
    throw std::runtime_error("ServerOpt state: " +
                             std::to_string(r.remaining()) +
                             " bytes past the " + name + " state");
  }
}

}  // namespace photon
