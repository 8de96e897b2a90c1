// Reproduces paper Table 2: wall time / compute time / communication time
// and GPU-efficiency metrics for billion-scale Photon runs vs centralized
// baselines.
//
// Method (identical to the paper's Appendix B.1): wall times come from the
// analytic model T = R * (tau/nu + T_C) with the paper's empirically
// measured throughputs nu, Ring-AllReduce over a fixed 10 Gbps slowest
// link, and BF16 parameters/gradients on the wire.  Centralized DDP
// communicates every optimizer step; Photon communicates once per round
// (tau = 500 local steps, Table 6).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "comm/cost_model.hpp"
#include "sim/cluster.hpp"
#include "sim/mfu.hpp"
#include "util/table.hpp"

using namespace photon;

namespace {

struct ScaleSpec {
  const char* name;
  ModelConfig model;
  PaperThroughput nu;
  PaperBatch batch;
  int clients;           // data-parallel workers == federated clients
  int gpus_per_client;
  double fed_compute_h;  // paper-measured local compute hours (input)
  double cen_compute_h;
  // Paper-reported values for comparison columns.
  double paper_fed_wall_h, paper_cen_wall_h;
  double paper_fed_comm_h, paper_cen_comm_h;
};

std::vector<ScaleSpec> scales() {
  return {
      {"1.3B", ModelConfig::paper_1_3b(), paper_throughput_1_3b(),
       paper_batch_1_3b(), 8, 2, 18.0, 6.5, 18.02, 26.7, 0.02, 20.2},
      {"3B", ModelConfig::paper_3b(), paper_throughput_3b(), paper_batch_3b(),
       4, 4, 25.1, 16.1, 25.2, 56.6, 0.05, 40.48},
      {"7B", ModelConfig::paper_7b(), paper_throughput_7b(), paper_batch_7b(),
       4, 8, 95.5, 50.7, 95.6, 147.9, 0.1, 97.2},
  };
}

}  // namespace

int main() {
  bench::print_header(
      "Table 2: system metrics, Photon vs centralized (RAR @ 10 Gbps, BF16)");

  const WallTimeModel model(1250.0);
  constexpr int kTau = 500;  // local steps per round, Table 6

  const std::vector<ScaleSpec> specs = scales();
  struct Hours {
    double cen_comm, cen_wall, fed_comm, fed_wall;
  };
  std::vector<Hours> hours;
  TablePrinter t({"Model", "Wall [h]", "(paper)", "Compute [h]", "Comm [h]",
                  "(paper)", "MFU/device"});
  for (const ScaleSpec& s : specs) {
    const double s_mb = model_size_mb(s.model.num_params(), 2.0);
    const double rar_s =
        model.comm_time(Topology::kRingAllReduce, s.clients, s_mb);

    // Centralized DDP: comm every step.
    const double cen_steps = s.cen_compute_h * 3600.0 * s.nu.centralized_bps;
    const double cen_comm_h = rar_s * cen_steps / 3600.0;
    const double cen_wall_h = s.cen_compute_h + cen_comm_h;

    // Photon: comm every tau steps.
    const double fed_steps = s.fed_compute_h * 3600.0 * s.nu.federated_bps;
    const double fed_rounds = fed_steps / kTau;
    const double fed_comm_h = rar_s * fed_rounds / 3600.0;
    const double fed_wall_h = s.fed_compute_h + fed_comm_h;
    hours.push_back({cen_comm_h, cen_wall_h, fed_comm_h, fed_wall_h});

    const double peak_tflops = s.gpus_per_client * 989.0;  // H100 BF16
    const double cen_mfu = model_flops_utilization(
        s.model, s.nu.centralized_bps / s.clients, s.batch.centralized,
        peak_tflops);
    const double fed_mfu = model_flops_utilization(
        s.model, s.nu.federated_bps, s.batch.federated / s.clients,
        peak_tflops);

    t.add_row({std::string("Cen-") + s.name, TablePrinter::fmt(cen_wall_h, 1),
               TablePrinter::fmt(s.paper_cen_wall_h, 1),
               TablePrinter::fmt(s.cen_compute_h, 1),
               TablePrinter::fmt(cen_comm_h, 2),
               TablePrinter::fmt(s.paper_cen_comm_h, 2),
               TablePrinter::fmt(cen_mfu, 3)});
    t.add_row({std::string("Fed-") + s.name, TablePrinter::fmt(fed_wall_h, 1),
               TablePrinter::fmt(s.paper_fed_wall_h, 1),
               TablePrinter::fmt(s.fed_compute_h, 1),
               TablePrinter::fmt(fed_comm_h, 2),
               TablePrinter::fmt(s.paper_fed_comm_h, 2),
               TablePrinter::fmt(fed_mfu, 3)});
  }
  t.print();

  bench::print_header("Headline ratios (Fed vs Cen)");
  TablePrinter r({"Model", "Wall-time ratio", "paper", "Comm reduction"});
  const char* slower = nullptr;  // first scale where federated is not faster
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScaleSpec& s = specs[i];
    const Hours& h = hours[i];
    if (slower == nullptr && !(h.fed_wall < h.cen_wall)) slower = s.name;
    const double paper_ratio = s.paper_fed_wall_h / s.paper_cen_wall_h;
    r.add_row({s.name, TablePrinter::fmt_ratio(h.fed_wall / h.cen_wall, 2),
               TablePrinter::fmt_ratio(paper_ratio, 2),
               TablePrinter::fmt(h.cen_comm / h.fed_comm, 0) + "x less comm"});
  }
  r.print();
  if (slower != nullptr) {
    std::printf(
        "\nClaim check FAILED: federated wall time is not below centralized "
        "at %s.\n",
        slower);
    return 1;
  }
  std::printf(
      "\nClaim check: federated wall time beats centralized at every scale\n"
      "because Photon communicates ~%dx less often (tau=%d).\n",
      kTau, kTau);
  return 0;
}
