// Cross-datacenter deployment planner (the paper's SS2.1 "Cross Data-center"
// scenario): given the paper's five-region federation (Table 1 / Fig. 2),
// plan a training run for each model scale WITHOUT training — strategy
// selection per client, autotuned batch sizes, and projected wall time per
// aggregation topology from the Appendix-B.1 model.
//
// This is the "capacity planning" face of the API: everything here runs in
// milliseconds and answers "what would this federation cost me?".

#include <cstdio>

#include "comm/cost_model.hpp"
#include "sim/autotuner.hpp"
#include "sim/cluster.hpp"
#include "sim/mfu.hpp"
#include "sim/strategy.hpp"
#include "util/table.hpp"

using namespace photon;

namespace {

struct PlanInput {
  PaperScale scale;
  ModelConfig model;
  PaperThroughput nu;
  double rounds = 50;  // planned federated rounds
};

}  // namespace

int main() {
  const std::vector<PlanInput> plans{
      {PaperScale::k125M, ModelConfig::paper_125m(), paper_throughput_125m()},
      {PaperScale::k1_3B, ModelConfig::paper_1_3b(), paper_throughput_1_3b()},
      {PaperScale::k3B, ModelConfig::paper_3b(), paper_throughput_3b()},
      {PaperScale::k7B, ModelConfig::paper_7b(), paper_throughput_7b()},
  };

  StrategySelector selector;
  constexpr int kTau = 500;

  for (const PlanInput& plan : plans) {
    const Federation fed = paper_federation(plan.scale);
    std::printf("\n=== %s: %zu clients, aggregator in %s ===\n",
                paper_scale_name(plan.scale), fed.clients.size(),
                fed.aggregator_region.c_str());

    // Per-client plan.
    TablePrinter t({"Region", "GPUs", "Strategy", "Device batch", "Mem/GPU GB"});
    for (const auto& client : fed.clients) {
      const StrategyDecision d = selector.select(plan.model, client);
      t.add_row({client.region, std::to_string(client.total_gpus()),
                 local_strategy_name(d.strategy),
                 std::to_string(d.batch.device_batch),
                 TablePrinter::fmt(d.batch.memory_gb, 1)});
    }
    t.print();

    // Projected round time per topology, bottlenecked by the real fabric.
    const double s_mb = model_size_mb(plan.model.num_params(), 2.0);
    const double ring_gbps = fed.fabric.slowest_ring_link_gbps();
    const double star_gbps = fed.fabric.slowest_star_link_gbps(
        fed.fabric.site_index(fed.aggregator_region));

    TablePrinter w({"Topology", "bottleneck", "comm/round [s]",
                    "round total [s]", "run total [h]"});
    const int k = static_cast<int>(fed.clients.size());
    const double local_s = kTau / plan.nu.federated_bps;
    struct Row {
      Topology topo;
      double gbps;
    };
    for (const Row& row : {Row{Topology::kParameterServer, star_gbps},
                           Row{Topology::kAllReduce, ring_gbps},
                           Row{Topology::kRingAllReduce, ring_gbps}}) {
      const WallTimeModel model(row.gbps * 125.0);  // Gbps -> MB/s
      const double comm = model.comm_time(row.topo, k, s_mb);
      const double round_s = local_s + comm;
      w.add_row({topology_name(row.topo),
                 TablePrinter::fmt(row.gbps, 1) + " Gbps",
                 TablePrinter::fmt(comm, 1), TablePrinter::fmt(round_s, 1),
                 TablePrinter::fmt(plan.rounds * round_s / 3600.0, 1)});
    }
    w.print();
  }

  std::printf(
      "\nReading the plan: RAR amortizes bandwidth best but is hostage to\n"
      "the slowest ring link (Quebec<->Maharashtra); PS pays K x model size\n"
      "through the England hub but tolerates dropouts and privacy limits.\n");
  return 0;
}
