#pragma once
// Optimal training strategy selection for LLM-C (paper §4).
//
// The heuristic, verbatim from the paper:
//  1. model + sufficient batch fits a single GPU  -> dedicated GPU
//  2. multi-GPU node                              -> DDP if it fits one GPU,
//                                                    FSDP otherwise
//  3. multi-node cluster: RDMA-class interconnect -> DDP/FSDP across nodes;
//     slower interconnect                         -> nested sub-federation
//     with data sub-partitioning (Alg. 1 L19-25)

#include <string>

#include "nn/config.hpp"
#include "sim/autotuner.hpp"
#include "sim/hardware.hpp"

namespace photon {

enum class LocalStrategy {
  kSingleGpu,
  kDdp,
  kFsdp,
  kSubFederation,
  kDoesNotFit,
};

const char* local_strategy_name(LocalStrategy s);

struct StrategyDecision {
  LocalStrategy strategy = LocalStrategy::kDoesNotFit;
  AutotuneResult batch;     // autotuned batch under the chosen strategy
  std::string rationale;    // human-readable reason (logged by LLM-C)
};

/// The paper's heuristic above, with tune_gpu/tune_client sizing the batch.
StrategyDecision select_strategy(const ModelConfig& model,
                                 const ClientSpec& client);

}  // namespace photon
