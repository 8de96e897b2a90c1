// Reproduces paper Table 1 ("Computational resources of different regions")
// and Fig. 2 (federation map with WAN bandwidths): prints the federation
// inventory per model scale, the inter-region bandwidth matrix, the RAR /
// PS bottleneck analysis, and the strategy each client's LLM-C would select.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "sim/cluster.hpp"
#include "sim/strategy.hpp"
#include "util/table.hpp"

using namespace photon;

namespace {

ModelConfig model_for(PaperScale scale) {
  switch (scale) {
    case PaperScale::k125M: return ModelConfig::paper_125m();
    case PaperScale::k1_3B: return ModelConfig::paper_1_3b();
    case PaperScale::k3B: return ModelConfig::paper_3b();
    case PaperScale::k7B: return ModelConfig::paper_7b();
  }
  return ModelConfig::paper_125m();
}

}  // namespace

int main() {
  bench::print_header("Table 1: federation inventory (clients x GPUs per region)");
  {
    TablePrinter t({"Size", "Agg", "England", "Utah", "Texas", "Quebec",
                    "Maharashtra"});
    for (const PaperScale scale :
         {PaperScale::k7B, PaperScale::k3B, PaperScale::k1_3B,
          PaperScale::k125M}) {
      const Federation fed = paper_federation(scale);
      std::map<std::string, std::pair<int, int>> per_region;  // count, gpus
      for (const auto& c : fed.clients) {
        auto& [count, gpus] = per_region[c.region];
        ++count;
        gpus = c.total_gpus();
      }
      auto cell = [&](const std::string& region) -> std::string {
        const auto it = per_region.find(region);
        if (it == per_region.end()) return "-";
        return std::to_string(it->second.first) + " x " +
               std::to_string(it->second.second) + " H100";
      };
      t.add_row({paper_scale_name(scale), fed.aggregator_region,
                 cell("England"), cell("Utah"), cell("Texas"), cell("Quebec"),
                 cell("Maharashtra")});
    }
    t.print();
  }

  bench::print_header("Fig. 2: inter-region bandwidth matrix (Gbps)");
  {
    const Federation fed = paper_federation(PaperScale::k7B);
    std::vector<std::string> headers{"from \\ to"};
    for (const auto& site : fed.fabric.sites()) headers.push_back(site);
    TablePrinter t(headers);
    for (std::size_t i = 0; i < fed.fabric.num_sites(); ++i) {
      std::vector<std::string> row{fed.fabric.sites()[i]};
      for (std::size_t j = 0; j < fed.fabric.num_sites(); ++j) {
        row.push_back(i == j ? "-"
                             : TablePrinter::fmt(fed.fabric.bandwidth(i, j), 1));
      }
      t.add_row(row);
    }
    t.print();

    const auto quebec = fed.fabric.site_index("Quebec");
    const auto maharashtra = fed.fabric.site_index("Maharashtra");
    const auto england = fed.fabric.site_index("England");
    std::printf(
        "\nRAR bottleneck (slowest ring link): %.1f Gbps "
        "(Quebec<->Maharashtra: %.1f Gbps)\n",
        fed.fabric.slowest_ring_link_gbps(),
        fed.fabric.bandwidth(quebec, maharashtra));
    std::printf("PS bottleneck (slowest link to hub England): %.1f Gbps\n",
                fed.fabric.slowest_star_link_gbps(england));
  }

  bench::print_header(
      "LLM-C strategy selection + autotuned batch per scale (paper SS4 heuristic)");
  {
    TablePrinter t({"Size", "Client GPUs", "Strategy", "Micro-batch/GPU",
                    "Device batch", "Mem (GB)"});
    for (const PaperScale scale :
         {PaperScale::k125M, PaperScale::k1_3B, PaperScale::k3B,
          PaperScale::k7B}) {
      const Federation fed = paper_federation(scale);
      const ClientSpec& client = fed.clients.front();
      const StrategyDecision d = select_strategy(model_for(scale), client);
      t.add_row({paper_scale_name(scale), std::to_string(client.total_gpus()),
                 local_strategy_name(d.strategy),
                 std::to_string(d.batch.micro_batch_per_gpu),
                 std::to_string(d.batch.device_batch),
                 TablePrinter::fmt(d.batch.memory_gb, 1)});
    }
    t.print();
  }
  return 0;
}
