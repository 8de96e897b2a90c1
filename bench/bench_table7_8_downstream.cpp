// Reproduces paper Tables 7-8 (Appendix D.1): downstream in-context
// evaluation of Photon-trained models across three scales.
//
// The paper's ICL suites (ARC, HellaSwag, ...) need natural corpora, so we
// run the synthetic probe suite (see eval/probes.hpp) scored exactly like
// ICL multiple choice.  Claim reproduced: the LARGEST Photon model wins
// most head-to-head task comparisons (paper: 10 of 14).

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "data/corpus.hpp"
#include "eval/probes.hpp"
#include "util/table.hpp"

using namespace photon;

namespace {

/// Federately pre-train a model of the given config with Photon and return
/// its parameters loaded into a fresh model.
std::unique_ptr<GptModel> train_photon(const ModelConfig& model, int rounds) {
  RunnerConfig rc = bench::sweep_config(model);
  rc.population = 4;
  rc.local_steps = 16;
  rc.local_batch = 4;
  rc.rounds = rounds;
  rc.eval_every = rounds;
  PhotonRunner runner(rc);
  runner.run();
  auto trained = std::make_unique<GptModel>(model, 0);
  trained->load_params(runner.aggregator().global_params());
  return trained;
}

}  // namespace

int main() {
  bench::print_header(
      "Tables 7-8: downstream probe accuracy by Photon model scale");

  struct Scale {
    const char* name;
    ModelConfig model;
    int rounds;
  };
  // Same token budget per scale (equal rounds): capability rises with
  // capacity, as in the paper's Photon-1B/3B/7B comparison.  The smallest
  // model is deliberately rank-bottlenecked (d_model 8) so the synthetic
  // grammar is NOT capacity-saturated across the lineup.
  const std::vector<Scale> scales{
      {"Photon-S", ModelConfig{1, 8, 2, 128, 32, 2}, 12},
      {"Photon-M", ModelConfig{2, 20, 2, 128, 32, 4}, 12},
      {"Photon-L", bench::standin_3b(), 12},
  };

  // The corpus train_photon's runner trains on (sweep_config's seed 21).
  const MarkovSource probe_corpus(harness_corpus_config(128, 21), c4_style());

  ProbeConfig pc;
  pc.num_cases = 96;

  std::vector<std::vector<ProbeResult>> all;
  for (const auto& s : scales) {
    auto model = train_photon(s.model, s.rounds);
    all.push_back(run_all_probes(*model, probe_corpus, pc));
  }

  TablePrinter t({"Model", "bigram-cloze", "induction-copy", "continuation"});
  for (std::size_t i = 0; i < scales.size(); ++i) {
    t.add_row({scales[i].name, TablePrinter::fmt(all[i][0].accuracy, 3),
               TablePrinter::fmt(all[i][1].accuracy, 3),
               TablePrinter::fmt(all[i][2].accuracy, 3)});
  }
  t.add_row({"random", TablePrinter::fmt(all[0][0].random_baseline, 3),
             TablePrinter::fmt(all[0][1].random_baseline, 3),
             TablePrinter::fmt(all[0][2].random_baseline, 3)});
  t.print();

  // Head-to-head: largest vs each smaller model on each task.
  int wins = 0, strict = 0, comparisons = 0;
  for (std::size_t task = 0; task < all[0].size(); ++task) {
    for (std::size_t smaller = 0; smaller + 1 < scales.size(); ++smaller) {
      ++comparisons;
      if (all.back()[task].accuracy >= all[smaller][task].accuracy) ++wins;
      if (all.back()[task].accuracy > all[smaller][task].accuracy) ++strict;
    }
  }
  std::printf(
      "\nClaim check: largest model wins-or-ties %d of %d head-to-head "
      "comparisons (%d strict; paper: wins 10 of 14).\n",
      wins, comparisons, strict);
  return 0;
}
