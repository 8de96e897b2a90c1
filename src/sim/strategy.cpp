#include "sim/strategy.hpp"

namespace photon {

const char* local_strategy_name(LocalStrategy s) {
  switch (s) {
    case LocalStrategy::kSingleGpu: return "single-gpu";
    case LocalStrategy::kDdp: return "ddp";
    case LocalStrategy::kFsdp: return "fsdp";
    case LocalStrategy::kSubFederation: return "sub-federation";
    case LocalStrategy::kDoesNotFit: return "does-not-fit";
  }
  return "?";
}

StrategyDecision select_strategy(const ModelConfig& model,
                                 const ClientSpec& client) {
  StrategyDecision d;
  if (client.nodes.empty()) {
    d.rationale = "client has no nodes";
    return d;
  }

  const GpuSpec& gpu = client.nodes.front().gpu;
  const AutotuneResult single = tune_gpu(model, gpu);
  const bool multi_node = client.nodes.size() > 1;
  const bool multi_gpu = client.total_gpus() > 1;

  // Case 1: single GPU clients.
  if (!multi_gpu) {
    if (single.fits) {
      d.strategy = LocalStrategy::kSingleGpu;
      d.batch = single;
      d.rationale = "model fits one GPU; dedicated GPU per client";
    } else {
      d.rationale = "model does not fit the client's only GPU";
    }
    return d;
  }

  // Case 3: multi-node clusters gate on interconnect speed first.
  if (multi_node) {
    bool rdma = true;
    for (const auto& node : client.nodes) rdma = rdma && node.has_rdma();
    if (!rdma) {
      d.strategy = LocalStrategy::kSubFederation;
      d.batch = tune_client(model, client, /*fsdp_sharding=*/false);
      d.rationale =
          "multi-node without RDMA: nested sub-federation with "
          "data sub-partitioning";
      if (!d.batch.fits) d.strategy = LocalStrategy::kDoesNotFit;
      return d;
    }
  }

  // Case 2 (and RDMA multi-node): DDP if a viable batch fits one GPU,
  // otherwise FSDP sharding.
  if (single.fits) {
    d.strategy = LocalStrategy::kDdp;
    d.batch = tune_client(model, client, /*fsdp_sharding=*/false);
    d.rationale = "model fits one GPU; DDP across the client's GPUs";
    return d;
  }
  const AutotuneResult sharded =
      tune_client(model, client, /*fsdp_sharding=*/true);
  if (sharded.fits) {
    d.strategy = LocalStrategy::kFsdp;
    d.batch = sharded;
    d.rationale = "model exceeds one GPU; FSDP shards states across GPUs";
    return d;
  }
  d.rationale = "model exceeds client VRAM even with FSDP sharding";
  return d;
}

}  // namespace photon
