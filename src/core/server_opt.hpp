#pragma once
// Server optimizers (ServerOpt, paper Alg. 1 L9): apply the averaged
// pseudo-gradient Delta = theta_t - mean_k(theta_k) to the global model.
//
//  * FedAvg  — theta <- theta - eta_s * Delta.  Photon's default is
//    eta_s = 1, mu_s = 0 (Appendix A: "For all of our non-DiLoCo
//    experiments, we default to FedAvg with server learning rate 1.0 and
//    server momentum 0.0").
//  * FedMom  — server momentum (Huo et al. 2020), the FedMom rows of
//    Table 5.
//  * Nesterov — SGD with Nesterov momentum; DiLoCo's recommended OuterOpt
//    (eta_s in {0.1..0.7}, mu = 0.9 per Fig. 8).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/serialization.hpp"

namespace photon {

class ServerOpt {
 public:
  virtual ~ServerOpt() = default;
  virtual std::string name() const = 0;

  /// In-place update of `params` from the averaged pseudo-gradient
  /// (pseudo_grad = theta_old - theta_avg; a descent direction).
  virtual void apply(std::span<float> params,
                     std::span<const float> pseudo_grad) = 0;

  virtual void reset() = 0;

  /// (De)serialize optimizer state (momentum / moment buffers) for exact
  /// crash recovery: a restored aggregator must continue the run as if it
  /// were never interrupted, so stateful server optimizers checkpoint
  /// their buffers alongside the global params.  Stateless optimizers
  /// write nothing.
  virtual void save_state(BinaryWriter&) const {}
  virtual void load_state(BinaryReader&) {}
};

class FedAvgOpt final : public ServerOpt {
 public:
  explicit FedAvgOpt(float lr = 1.0f) : lr_(lr) {}
  std::string name() const override { return "fedavg"; }
  void apply(std::span<float> params,
             std::span<const float> pseudo_grad) override;
  void reset() override {}

 private:
  float lr_;
};

class FedMomOpt final : public ServerOpt {
 public:
  FedMomOpt(float lr, float momentum) : lr_(lr), momentum_(momentum) {}
  std::string name() const override { return "fedmom"; }
  void apply(std::span<float> params,
             std::span<const float> pseudo_grad) override;
  void reset() override;
  void save_state(BinaryWriter& w) const override { w.write_vector(buf_); }
  void load_state(BinaryReader& r) override { buf_ = r.read_vector<float>(); }

 private:
  float lr_;
  float momentum_;
  std::vector<float> buf_;
};

class NesterovOpt final : public ServerOpt {
 public:
  NesterovOpt(float lr, float momentum) : lr_(lr), momentum_(momentum) {}
  std::string name() const override { return "nesterov"; }
  void apply(std::span<float> params,
             std::span<const float> pseudo_grad) override;
  void reset() override;
  void save_state(BinaryWriter& w) const override { w.write_vector(buf_); }
  void load_state(BinaryReader& r) override { buf_ = r.read_vector<float>(); }

 private:
  float lr_;
  float momentum_;
  std::vector<float> buf_;
};

/// Factory used by experiment configs: "fedavg", "fedmom" or "nesterov"
/// with (lr, momentum) where applicable.
std::unique_ptr<ServerOpt> make_server_opt(const std::string& name, float lr,
                                           float momentum);

/// Throws std::runtime_error unless `state` is one the optimizer of that
/// name saves for a model of `num_params` parameters: no bytes for
/// "fedavg", and for "fedmom" and "nesterov" one momentum buffer of 0
/// (never applied) or `num_params` floats with nothing after it.  Restore
/// calls this before it changes anything; load_state trusts its input.
/// A name make_server_opt does not know is left to its own load_state.
void check_server_opt_state(const std::string& name,
                            std::span<const std::uint8_t> state,
                            std::size_t num_params);

}  // namespace photon
