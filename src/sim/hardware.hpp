#pragma once
// Hardware catalog and client topology descriptions.
//
// Photon's LLM-C inspects its local hardware (GetNodes, Alg. 1 L15) to pick
// a training strategy.  This module provides the published accelerator specs
// the heuristics consume, plus the node/cluster descriptions used to model
// the paper's federation (Table 1).

#include <string>
#include <vector>

namespace photon {

struct GpuSpec {
  std::string name;
  double vram_gb = 0.0;
  double bf16_tflops = 0.0;   // dense BF16 peak
  double nvlink_gbps = 0.0;   // intra-node interconnect (0 = PCIe only)

  static GpuSpec h100();
  static GpuSpec a100();
  static GpuSpec rtx4090();   // commodity-hardware scenario (§2.1)
};

/// One machine: `num_gpus` identical accelerators and the bandwidth of the
/// fabric joining them to other machines of the same client.
struct NodeSpec {
  GpuSpec gpu;
  int num_gpus = 1;
  /// Inter-node bandwidth within this client's cluster, Gbps.  >= 100 means
  /// RDMA-class (RoCE / InfiniBand) per paper §2.4.
  double internode_gbps = 0.0;

  bool has_rdma() const { return internode_gbps >= 100.0; }
};

/// One federated participant: one or more nodes plus its WAN uplink to the
/// aggregator.
struct ClientSpec {
  std::string region;
  std::vector<NodeSpec> nodes;
  double wan_gbps = 2.5;  // paper §2.1(d): average 2.5 Gbps assumption

  int total_gpus() const;
};

}  // namespace photon
