// Cross-silo federation over heterogeneous data silos (the paper's The-Pile
// scenario, SS5.5): four institutions each hold a different text category
// (web / academic / prose / wiki), train with partial participation, apply
// update clipping + DP noise + lossless compression in the client
// post-processing pipeline, and aggregate under secure aggregation.
//
// Demonstrates the privacy-oriented configuration surface of the API: the
// aggregator only ever sees masked, clipped, noised updates, yet the global
// model still converges.

#include <cstdio>
#include <memory>

#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "eval/perplexity.hpp"
#include "nn/model.hpp"

using namespace photon;

int main() {
  const ModelConfig model = ModelConfig::nano();

  // Four silos, four text styles sharing only 40% of their distribution.
  CorpusConfig cc;
  cc.vocab_size = model.vocab_size;
  const auto styles = pile_styles(/*base_blend=*/0.4);

  ClientTrainConfig ctc;
  ctc.model = model;
  ctc.local_batch = 4;
  ctc.schedule.max_lr = 1e-2f;
  ctc.schedule.warmup_steps = 16;
  ctc.schedule.total_steps = 2000;
  ctc.clip_update_norm = 5.0;        // post-process: clip the update
  ctc.dp_noise_multiplier = 1e-3;    // post-process: DP noise
  ctc.link_codec = "rle0";           // post-process: lossless compression

  std::vector<std::unique_ptr<LLMClient>> clients;
  std::vector<std::shared_ptr<const MarkovSource>> corpora;
  for (std::size_t i = 0; i < styles.size(); ++i) {
    auto corpus = std::make_shared<MarkovSource>(cc, styles[i]);
    corpora.push_back(corpus);
    // Each silo's DS: pre-tokenized stream with a 4k-token cache block.
    auto stream = std::make_unique<CachedSource>(
        std::make_unique<CorpusStreamSource>(corpus, 100 + i), 4096);
    std::printf("silo %zu: %-10s (cache-backed stream)\n", i,
                styles[i].name.c_str());
    clients.push_back(std::make_unique<LLMClient>(
        static_cast<int>(i), ctc, std::move(stream), 7));
  }

  AggregatorConfig ac;
  ac.clients_per_round = 3;        // partial participation: 3 of 4 per round
  ac.local_steps = 16;
  ac.secure_aggregation = true;    // pairwise masking; server sees no update
  ac.topology = Topology::kParameterServer;  // required under privacy (SS4)
  ac.seed = 99;

  Aggregator agg(model, ac, make_server_opt("fedavg", 1.0f, 0.0f),
                 std::move(clients), /*init_seed=*/42);

  // Validation: an equal mixture of all four categories.
  std::vector<std::unique_ptr<DataSource>> eval_parts;
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    eval_parts.push_back(
        std::make_unique<CorpusStreamSource>(corpora[i], 500 + i));
  }
  StreamMixer eval_mix(std::move(eval_parts), {1, 1, 1, 1}, 1234);
  const TokenDataset eval_set = materialize(eval_mix, 1 << 13);
  GptModel eval_model(model, 0);

  std::printf("\nround  cohort          eval-ppl  wire-KB(round)\n");
  for (int round = 0; round < 24; ++round) {
    const RoundRecord rec = agg.run_round();
    eval_model.load_params(agg.global_params());
    const EvalResult ev = evaluate_perplexity(eval_model, eval_set, 3, 6);
    agg.record_eval(ev.perplexity);
    std::string cohort;
    for (int id : rec.participants) cohort += std::to_string(id) + " ";
    std::printf("%5d  {%-12s}  %8.2f  %10.1f\n", round, cohort.c_str(),
                ev.perplexity, rec.comm_bytes / 1024.0);
  }

  std::printf("\nDP + secure aggregation + compression: global model still "
              "converged to ppl %.2f\n",
              agg.history().records().back().eval_perplexity);
  return 0;
}
