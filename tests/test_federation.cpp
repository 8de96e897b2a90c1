// Integration tests across core/: LLM clients, the Aggregator round loop,
// and the algebraic identities that pin federated optimization to its
// centralized counterparts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "comm/link.hpp"
#include "comm/message.hpp"
#include "core/aggregator.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "core/client.hpp"
#include "core/runner.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace photon {
namespace {

ModelConfig tiny_model() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 16;
  c.n_heads = 2;
  c.vocab_size = 64;
  c.seq_len = 16;
  c.expansion_ratio = 2;
  return c;
}

ClientTrainConfig tiny_client_config() {
  ClientTrainConfig ctc;
  ctc.model = tiny_model();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 1000;
  return ctc;
}

std::unique_ptr<DataSource> tiny_stream(std::uint64_t seed) {
  CorpusConfig cc;
  cc.vocab_size = 64;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  return std::make_unique<CorpusStreamSource>(corpus, seed);
}

/// A client round's update message, the delta it formed over the shell's
/// params (copied out before the lease ends), whether the update's payload
/// borrowed those params, and the image the client encoded it into.
struct TrainedRound : Message {
  std::vector<float> delta;
  bool borrowed_shell = false;
  WireScratch image;
};

std::vector<float> init_params(const ModelConfig& model, std::uint64_t seed) {
  const GptModel m(model, seed);
  return {m.params().begin(), m.params().end()};
}

/// The broadcast of `params` for `round`, encoded as the aggregator sends
/// it.  Its one metadata key is padded by `pad` characters, which moves
/// the image's floats by as many bytes.
Message broadcast_of(std::span<const float> params, std::uint32_t round,
                     int local_steps, std::size_t pad, WireScratch& sent) {
  Message broadcast;
  broadcast.type = MessageType::kModelBroadcast;
  broadcast.round = round;
  broadcast.payload_view = params;
  broadcast.metadata["local_steps" + std::string(pad, '_')] = local_steps;
  broadcast.encode_into(sent);
  return broadcast;
}

/// One client round from `params`, sent as a broadcast image and received
/// into the thread's shell, whose params run_round overwrites with the
/// delta.
TrainedRound train_round(LLMClient& client, std::span<const float> params,
                         std::uint32_t round, int local_steps,
                         std::int64_t schedule_step_base,
                         std::size_t pad = 0) {
  WireScratch sent;
  const Message broadcast =
      broadcast_of(params, round, local_steps, pad, sent);
  TrainedRound out;
  const ShellLease shell(client.config().model);
  Message header;
  SimLink("broadcast", 1.0).transmit(broadcast, sent, header, shell.params());
  client.run_round(shell, sent.chunks(), round, local_steps,
                   schedule_step_base, kDefaultWireChunkBytes, out, out.image);
  out.borrowed_shell = out.view().data() == shell.params().data();
  out.delta.assign(out.view().begin(), out.view().end());
  out.payload_view = {};
  return out;
}

/// Alg. 1 L16-18 by hand for round 0: a shape-only replica loaded from
/// `global`, a fresh AdamW and the client's cosine schedule, trained for
/// `steps` steps on `stream`.  Returns the trained parameters.
std::vector<float> train_by_hand(const ClientTrainConfig& cfg,
                                 DataSource& stream,
                                 std::span<const float> global, int steps) {
  GptModel replica(cfg.model);
  replica.load_params(global);
  AdamW opt(replica.num_params());
  const CosineSchedule schedule(cfg.schedule);
  const int seq = cfg.model.seq_len;
  for (int step = 0; step < steps; ++step) {
    const Batch b = stream.next_batch(cfg.local_batch, seq);
    replica.zero_grad();
    (void)replica.train_step_fb(b.tokens, b.targets, cfg.local_batch, seq);
    (void)opt.step_clipped(kernels::default_context(), replica.params(),
                           replica.grads(), schedule.lr_at(step),
                           cfg.max_grad_norm);
  }
  return {replica.params().begin(), replica.params().end()};
}

/// global - local, element by element.
std::vector<float> minus(std::span<const float> global,
                         std::span<const float> local) {
  std::vector<float> out(global.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = global[i] - local[i];
  return out;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  // memcmp must not see the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ------------------------------------------------------------- LLM client --
TEST(LLMClient, DeltaIsGlobalMinusLocal) {
  const ClientTrainConfig cfg = tiny_client_config();
  LLMClient client(0, cfg, tiny_stream(1), 11);
  GptModel global(tiny_model(), 99);
  const std::vector<float> before(global.params().begin(),
                                  global.params().end());
  const TrainedRound up = train_round(client, before, 0, 4, 0);
  // theta_local is the same round replayed by hand on the same stream.
  const auto stream = tiny_stream(1);
  const std::vector<float> local = train_by_hand(cfg, *stream, before, 4);
  EXPECT_TRUE(same_bytes(up.delta, minus(before, local)));
  // The client forms the update message, its payload borrowing the
  // shell's params, which hold the delta.
  EXPECT_EQ(up.type, MessageType::kClientUpdate);
  EXPECT_EQ(up.sender, 0u);
  EXPECT_EQ(up.codec, client.config().link_codec);
  EXPECT_TRUE(up.borrowed_shell);
  EXPECT_GT(up.metadata.at("tokens"), 0.0);
  EXPECT_GT(up.metadata.at("train_loss"), 0.0);
}

TEST(LLMClient, MisalignedBroadcastImageGivesTheSameUpdate) {
  // The client reads the global model from the broadcast image, whose
  // floats start wherever its header ends.  Padding the metadata key by
  // 0-3 characters puts them at every offset mod 4; the update image, the
  // EF residual and its norm must not move by a bit.  Under UBSan a load
  // through a misaligned float* fails this test.
  const std::vector<float> global = init_params(tiny_model(), 41);
  for (const char* codec : {"", "q8"}) {
    SCOPED_TRACE(std::string("codec '") + codec + "'");
    auto cfg = tiny_client_config();
    cfg.link_codec = codec;
    std::vector<std::size_t> residues;
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::vector<float>> residuals;
    std::vector<double> norms;
    for (std::size_t pad = 0; pad < 4; ++pad) {
      WireScratch sent;
      (void)broadcast_of(global, 1, 3, pad, sent);
      residues.push_back(sent.payload_offset % sizeof(float));
      // Two rounds, so the second folds a nonzero residual.
      LLMClient client(0, cfg, tiny_stream(9), 13);
      (void)train_round(client, global, 0, 3, 0, pad);
      const TrainedRound up = train_round(client, global, 1, 3, 3, pad);
      images.push_back(up.image.wire);
      residuals.push_back(client.ef_residual());
      norms.push_back(up.metadata.count("ef_residual_norm") != 0
                          ? up.metadata.at("ef_residual_norm")
                          : 0.0);
    }
    std::sort(residues.begin(), residues.end());
    EXPECT_EQ(residues, (std::vector<std::size_t>{0, 1, 2, 3}));
    for (std::size_t pad = 1; pad < 4; ++pad) {
      EXPECT_EQ(images[0], images[pad]) << "pad " << pad;
      EXPECT_TRUE(same_bytes(residuals[0], residuals[pad])) << "pad " << pad;
      EXPECT_EQ(0, std::memcmp(&norms[0], &norms[pad], sizeof(double)))
          << "pad " << pad;
    }
    if (std::string(codec) == "q8") {
      EXPECT_FALSE(residuals[0].empty());
      EXPECT_GT(norms[0], 0.0);
    }
  }
}

TEST(LLMClient, TrainingActuallyMovesParameters) {
  LLMClient client(0, tiny_client_config(), tiny_stream(2), 5);
  GptModel global(tiny_model(), 7);
  const TrainedRound up = train_round(
      client,
      std::vector<float>(global.params().begin(), global.params().end()), 0,
      8, 0);
  double norm = 0.0;
  for (float d : up.delta) norm += static_cast<double>(d) * d;
  EXPECT_GT(std::sqrt(norm), 1e-4);
}

TEST(LLMClient, StatelessRoundsAreReproducibleFromSameParams) {
  // With stateless optimizers and a fresh data stream, running the same
  // round twice from identical global params must give identical deltas.
  auto cfg = tiny_client_config();
  cfg.stateless_optimizer = true;
  GptModel global(tiny_model(), 3);
  const std::vector<float> params(global.params().begin(),
                                  global.params().end());
  LLMClient a(0, cfg, tiny_stream(42), 13);
  LLMClient b(0, cfg, tiny_stream(42), 13);
  const TrainedRound ua = train_round(a, params, 0, 4, 0);
  const TrainedRound ub = train_round(b, params, 0, 4, 0);
  EXPECT_EQ(ua.delta, ub.delta);
}

TEST(LLMClient, StatefulOptimizerChangesSecondRound) {
  // DiLoCo-style stateful inner optimizer: the second round differs from a
  // stateless client's second round given identical data and params.
  GptModel global(tiny_model(), 3);
  const std::vector<float> params(global.params().begin(),
                                  global.params().end());

  auto stateless_cfg = tiny_client_config();
  stateless_cfg.stateless_optimizer = true;
  auto stateful_cfg = tiny_client_config();
  stateful_cfg.stateless_optimizer = false;

  LLMClient stateless(0, stateless_cfg, tiny_stream(4), 17);
  LLMClient stateful(0, stateful_cfg, tiny_stream(4), 17);

  (void)train_round(stateless, params, 0, 4, 0);
  (void)train_round(stateful, params, 0, 4, 0);
  const TrainedRound u1 = train_round(stateless, params, 1, 4, 4);
  const TrainedRound u2 = train_round(stateful, params, 1, 4, 4);
  EXPECT_NE(u1.delta, u2.delta);
}

TEST(LLMClient, SubFederationAveragesNodeReplicas) {
  auto cfg = tiny_client_config();
  cfg.sub_nodes = 2;
  LLMClient client(0, cfg, tiny_stream(6), 19);
  const std::vector<float> global = init_params(tiny_model(), 23);
  const TrainedRound up = train_round(client, global, 0, 3, 0);
  // Two nodes, 3 steps, batch 2, seq 16 -> 2 * 3 * 2 * 16 tokens.
  EXPECT_EQ(up.metadata.at("tokens"), 2.0 * 3 * 2 * 16);

  // Alg. 1 L19-25 by hand: two replicas train in turn on the one stream,
  // each from the global with a fresh AdamW; their params are averaged in
  // double and narrowed.  The delta is taken against the received global,
  // which must survive until the last node has loaded it.
  const auto stream = tiny_stream(6);
  std::vector<double> sum(global.size(), 0.0);
  for (int node = 0; node < cfg.sub_nodes; ++node) {
    const std::vector<float> local = train_by_hand(cfg, *stream, global, 3);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += local[i];
  }
  std::vector<float> average(sum.size());
  for (std::size_t i = 0; i < sum.size(); ++i) {
    average[i] = static_cast<float>(sum[i] / cfg.sub_nodes);
  }
  EXPECT_TRUE(same_bytes(up.delta, minus(global, average)));
}

TEST(LLMClient, PostProcessingCodecPropagates) {
  // Alg. 1 L28 is one fixed sequence: clip, then DP noise, then the wire
  // codec named by config().link_codec.
  auto cfg = tiny_client_config();
  cfg.link_codec = "rle0";
  cfg.clip_update_norm = 1e-3;  // aggressive clip: the norm lands on it
  GptModel global(tiny_model(), 29);
  const std::vector<float> params(global.params().begin(),
                                  global.params().end());
  LLMClient clipped(0, cfg, tiny_stream(7), 23);
  const TrainedRound up = train_round(clipped, params, 0, 4, 0);
  double norm = 0.0;
  for (float d : up.delta) norm += static_cast<double>(d) * d;
  EXPECT_NEAR(std::sqrt(norm), 1e-3, 1e-4);
  EXPECT_TRUE(clipped.ef_residual().empty());  // lossless: no residual

  // DP noise lands on the clipped update: the noisy twin's delta is the
  // clipped delta plus the noise a DpNoiseStage with the client's seed
  // draws for (round 0, client 0), byte for byte.
  cfg.dp_noise_multiplier = 1.0;
  LLMClient noisy(0, cfg, tiny_stream(7), 23);
  const TrainedRound loud = train_round(noisy, params, 0, 4, 0);
  std::vector<float> expected = up.delta;
  PostProcessReport report;
  DpNoiseStage(1.0, 1e-3, hash_combine(23, 0xD9ULL)).apply(expected, report,
                                                           {0, 0});
  ASSERT_EQ(loud.delta.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(loud.delta.data(), expected.data(),
                           expected.size() * sizeof(float)));

  // set_link_codec retargets the one codec copy: the next round runs the
  // q8 error feedback, and an unknown name changes nothing.
  clipped.set_link_codec("q8");
  EXPECT_EQ(clipped.config().link_codec, "q8");
  (void)train_round(clipped, params, 1, 4, 4);
  EXPECT_EQ(clipped.ef_residual().size(), params.size());
  EXPECT_THROW(clipped.set_link_codec("gzip"), std::invalid_argument);
  EXPECT_EQ(clipped.config().link_codec, "q8");
  cfg.link_codec = "gzip";
  EXPECT_THROW(LLMClient(1, cfg, tiny_stream(8), 23), std::invalid_argument);
}

// --------------------------------------------------------- replica shells --
// A client trains on its thread's shell, a shape-only model plus a
// stateless AdamW that every client on the thread shares.  A twin that runs
// alone on a fresh thread borrows a shell no other client has touched.

struct ShellCase {
  ClientTrainConfig cfg;
  std::uint64_t data_seed = 0;
  std::vector<float> params;  // the global model every round starts from
};

/// The second-round update of a fresh client that ran both rounds alone on
/// a new thread.
TrainedRound second_round_alone(const ShellCase& c) {
  TrainedRound out;
  std::thread([&c, &out] {
    LLMClient twin(0, c.cfg, tiny_stream(c.data_seed), 31);
    (void)train_round(twin, c.params, 0, 3, 0);
    out = train_round(twin, c.params, 1, 3, 3);
  }).join();
  return out;
}

/// Serves `inner`'s tokens, then token id `bad` once `budget` tokens have
/// been drawn, so a round throws from inside the forward pass after it has
/// loaded the params and trained.
class PoisonedStream final : public DataSource {
 public:
  PoisonedStream(std::unique_ptr<DataSource> inner, std::size_t budget,
                 int bad)
      : inner_(std::move(inner)), budget_(budget), bad_(bad) {}
  const std::string& name() const override { return inner_->name(); }
  void next_tokens(std::size_t n, std::vector<int>& out) override {
    inner_->next_tokens(n, out);
    for (std::size_t i = out.size() - n; i < out.size(); ++i) {
      if (served_++ >= budget_) out[i] = bad_;
    }
  }
  std::uint64_t bytes_streamed() const override {
    return inner_->bytes_streamed();
  }

 private:
  std::unique_ptr<DataSource> inner_;
  std::size_t budget_;
  int bad_;
  std::size_t served_ = 0;
};

TEST(ReplicaShell, InterleavedClientsMatchTwinsThatRanAlone) {
  ShellCase wide{tiny_client_config(), 201, {}};
  wide.cfg.local_batch = 5;  // grows the shell's activation tape
  ShellCase stateful{tiny_client_config(), 202, {}};
  stateful.cfg.stateless_optimizer = false;  // keeps its own AdamW moments
  ShellCase other{tiny_client_config(), 203, {}};
  other.cfg.model.n_layers = 1;  // another key: the shell is rebuilt
  other.cfg.model.d_model = 24;
  other.cfg.model.n_heads = 3;
  // One thread runs all three in turn: the stateful client trains on the
  // shell (and the larger tape) the wide client just returned.
  const std::vector<ShellCase*> cases = {&wide, &stateful, &other};
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (ShellCase* c : cases) {
    c->params = init_params(c->cfg.model, c->data_seed);
    clients.push_back(std::make_unique<LLMClient>(
        0, c->cfg, tiny_stream(c->data_seed), 31));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    (void)train_round(*clients[i], cases[i]->params, 0, 3, 0);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TrainedRound mixed =
        train_round(*clients[i], cases[i]->params, 1, 3, 3);
    EXPECT_TRUE(same_bytes(mixed.delta, second_round_alone(*cases[i]).delta))
        << "client " << i;
  }
}

TEST(ReplicaShell, ThrowingRoundLeavesTheNextRoundTwinIdentical) {
  ShellCase c{tiny_client_config(), 204, {}};
  c.params = init_params(c.cfg.model, 5);
  LLMClient client(0, c.cfg, tiny_stream(c.data_seed), 31);
  (void)train_round(client, c.params, 0, 3, 0);

  // Rejected by the receive, before any training.
  const std::vector<float> short_params(c.params.begin(), c.params.end() - 1);
  EXPECT_THROW((void)train_round(client, short_params, 1, 3, 3),
               std::invalid_argument);
  // Thrown mid-round on the same shell: one clean step (2 rows of seq + 1
  // tokens), then an out-of-vocab token in the second step's batch.
  const std::size_t step_tokens = 2 * (16 + 1);
  LLMClient poisoned(1, c.cfg,
                     std::make_unique<PoisonedStream>(tiny_stream(205),
                                                      step_tokens, 64),
                     31);
  EXPECT_THROW((void)train_round(poisoned, c.params, 0, 3, 0),
               std::out_of_range);

  const TrainedRound next = train_round(client, c.params, 1, 3, 3);
  EXPECT_TRUE(same_bytes(next.delta, second_round_alone(c).delta));
}

// ------------------------------------------------------------- aggregator --
std::unique_ptr<Aggregator> build_aggregator(int population, int k, int tau,
                                             const std::string& opt = "fedavg",
                                             bool secure = false,
                                             std::uint64_t seed = 33,
                                             const std::string& link_codec = "") {
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < population; ++i) {
    auto cfg = tiny_client_config();
    cfg.link_codec = link_codec;
    clients.push_back(std::make_unique<LLMClient>(
        i, cfg, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
  }
  AggregatorConfig ac;
  ac.clients_per_round = k;
  ac.local_steps = tau;
  ac.secure_aggregation = secure;
  ac.seed = seed;
  ac.parallel_clients = false;  // determinism under test
  return std::make_unique<Aggregator>(tiny_model(), ac,
                                      make_server_opt(opt, 1.0f, 0.0f),
                                      std::move(clients), 55);
}

TEST(Aggregator, RoundRecordIsCoherent) {
  auto agg = build_aggregator(4, 0, 4);
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.round, 0u);
  EXPECT_EQ(rec.participants.size(), 4u);
  EXPECT_GT(rec.mean_train_loss, 0.0);
  EXPECT_GT(rec.update_norm, 0.0);
  EXPECT_EQ(rec.tokens_this_round, 4u * 4u * 2u * 16u);
  EXPECT_GT(rec.comm_bytes, 0u);
  EXPECT_GT(rec.sim_comm_seconds, 0.0);
  EXPECT_EQ(agg->round(), 1u);
  EXPECT_EQ(rec.client_metrics.count("train_loss"), 1u);
}

/// theta_k of client `id` in build_aggregator's round 0: global - delta of
/// a twin with the same id, config, stream and seed, run alone.
std::vector<float> twin_model(int id, const std::string& link_codec,
                              std::span<const float> global, int tau) {
  auto cfg = tiny_client_config();
  cfg.link_codec = link_codec;
  LLMClient twin(id, cfg, tiny_stream(100 + static_cast<std::uint64_t>(id)),
                 7);
  return minus(global, train_round(twin, global, 0, tau, 0).delta);
}

TEST(Aggregator, FedAvgUnitLrEqualsMeanOfClientModels) {
  // Exact-mean semantics require a lossless wire; pin rle0 so the test's
  // meaning survives a PHOTON_WIRE_CODEC=q8 environment (ci.sh rerun).
  auto agg = build_aggregator(3, 0, 2, "fedavg", false, 33, "rle0");
  const std::vector<float> before(agg->global_params().begin(),
                                  agg->global_params().end());
  agg->run_round();
  // global' = mean(theta_k) = global - mean(delta_k); verify via twins.
  std::vector<double> mean(before.size(), 0.0);
  for (int c = 0; c < 3; ++c) {
    const std::vector<float> local = twin_model(c, "rle0", before, 2);
    for (std::size_t i = 0; i < before.size(); ++i) mean[i] += local[i] / 3.0;
  }
  for (std::size_t i = 0; i < before.size(); i += 257) {
    EXPECT_NEAR(agg->global_params()[i], mean[i], 1e-5f);
  }
}

TEST(Aggregator, SingleClientSingleStepMatchesPlainSgdStepShape) {
  // K=1, tau=1: the federated update IS the single client's AdamW step
  // (FedAvg with lr 1 applies the whole delta).  Lossless wire pinned so a
  // PHOTON_WIRE_CODEC=q8 environment cannot perturb the equality.
  auto agg = build_aggregator(1, 0, 1, "fedavg", false, 33, "rle0");
  const std::vector<float> before(agg->global_params().begin(),
                                  agg->global_params().end());
  agg->run_round();
  const std::vector<float> local = twin_model(0, "rle0", before, 1);
  for (std::size_t i = 0; i < before.size(); i += 101) {
    EXPECT_NEAR(agg->global_params()[i], local[i], 1e-6f);
  }
}

TEST(Aggregator, TopologyDoesNotChangeNumerics) {
  // PS/AR/RAR must all produce the same global model (bit-near), differing
  // only in accounting.
  std::vector<std::vector<float>> results;
  for (const Topology topo : {Topology::kParameterServer, Topology::kAllReduce,
                              Topology::kRingAllReduce}) {
    std::vector<std::unique_ptr<LLMClient>> clients;
    for (int i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<LLMClient>(
          i, tiny_client_config(),
          tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
    }
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.topology = topo;
    ac.parallel_clients = false;
    Aggregator agg(tiny_model(), ac, make_server_opt("fedavg", 1.0f, 0.0f),
                   std::move(clients), 55);
    agg.run_round();
    results.emplace_back(agg.global_params().begin(),
                         agg.global_params().end());
  }
  for (std::size_t i = 0; i < results[0].size(); i += 97) {
    EXPECT_NEAR(results[0][i], results[1][i], 1e-5f);
    EXPECT_NEAR(results[0][i], results[2][i], 1e-5f);
  }
}

TEST(Aggregator, SecureAggregationPreservesTheMean) {
  auto plain = build_aggregator(4, 0, 2, "fedavg", false);
  auto secure = build_aggregator(4, 0, 2, "fedavg", true);
  plain->run_round();
  secure->run_round();
  for (std::size_t i = 0; i < plain->global_params().size(); i += 157) {
    EXPECT_NEAR(plain->global_params()[i], secure->global_params()[i], 5e-3f);
  }
}

TEST(Aggregator, PartialParticipationSamplesSubset) {
  auto agg = build_aggregator(8, 2, 2);
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.participants.size(), 2u);
}

TEST(Aggregator, CheckpointRestoreRestartsFromLatest) {
  auto agg = build_aggregator(2, 0, 2);
  agg->run_round();
  agg->run_round();
  const std::vector<float> at2(agg->global_params().begin(),
                               agg->global_params().end());
  EXPECT_TRUE(agg->restore_latest_checkpoint());
  EXPECT_EQ(agg->round(), 2u);
  for (std::size_t i = 0; i < at2.size(); i += 211) {
    EXPECT_FLOAT_EQ(agg->global_params()[i], at2[i]);
  }
}

TEST(Aggregator, RestoreRejectsAnotherFederationsCheckpoint) {
  // A checkpoint fits only the federation that wrote it.  Restoring it into
  // another population or another model throws before anything changes;
  // false means only that there is no checkpoint.
  const auto dir =
      std::filesystem::temp_directory_path() / "photon_foreign_ckpt";
  std::filesystem::remove_all(dir);
  const auto make = [&](int population, const ModelConfig& model) {
    std::vector<std::unique_ptr<LLMClient>> clients;
    for (int i = 0; i < population; ++i) {
      auto cfg = tiny_client_config();
      cfg.model = model;
      clients.push_back(std::make_unique<LLMClient>(
          i, cfg, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
    }
    AggregatorConfig ac;
    ac.local_steps = 1;
    ac.parallel_clients = false;
    ac.checkpoint_dir = dir;
    return std::make_unique<Aggregator>(model, ac,
                                        make_server_opt("fedavg", 1.0f, 0.0f),
                                        std::move(clients), 55);
  };
  const auto expect_refused = [](Aggregator& agg) {
    const std::vector<float> before(agg.global_params().begin(),
                                    agg.global_params().end());
    EXPECT_THROW(agg.restore_latest_checkpoint(), std::runtime_error);
    EXPECT_EQ(agg.round(), 0u);
    EXPECT_EQ(0, std::memcmp(before.data(), agg.global_params().data(),
                             before.size() * sizeof(float)));
    for (const std::uint32_t r : agg.client_trained_rounds()) EXPECT_EQ(r, 0u);
  };
  EXPECT_FALSE(make(6, tiny_model())->restore_latest_checkpoint());
  make(6, tiny_model())->run_round();
  expect_refused(*make(5, tiny_model()));
  ModelConfig wider = tiny_model();
  wider.d_model = 32;
  expect_refused(*make(6, wider));
  auto same = make(6, tiny_model());
  EXPECT_TRUE(same->restore_latest_checkpoint());
  EXPECT_EQ(same->round(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(Aggregator, ParallelAndSequentialClientsAgreeBitExactly) {
  auto make = [&](bool parallel) {
    std::vector<std::unique_ptr<LLMClient>> clients;
    for (int i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<LLMClient>(
          i, tiny_client_config(),
          tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
    }
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.parallel_clients = parallel;
    return std::make_unique<Aggregator>(tiny_model(), ac,
                                        make_server_opt("fedavg", 1.0f, 0.0f),
                                        std::move(clients), 55);
  };
  auto seq = make(false);
  auto par = make(true);
  for (int r = 0; r < 2; ++r) {
    const RoundRecord rs = seq->run_round();
    const RoundRecord rp = par->run_round();
    // Same wire traffic and bit-identical global parameters: the parallel
    // fan-out (including the update-return serialization it absorbed) must
    // be indistinguishable from the serial round path.
    EXPECT_EQ(rs.comm_bytes, rp.comm_bytes);
    EXPECT_DOUBLE_EQ(rs.mean_train_loss, rp.mean_train_loss);
    ASSERT_EQ(seq->global_params().size(), par->global_params().size());
    EXPECT_EQ(0, std::memcmp(seq->global_params().data(),
                             par->global_params().data(),
                             seq->global_params().size() * sizeof(float)));
  }
}

TEST(Aggregator, ChunkedAndWholeBufferEncodesGiveIdenticalParams) {
  auto chunked = build_aggregator(3, 0, 2);
  chunked->set_wire_chunk_bytes(1024);  // force many chunks per broadcast
  chunked->run_round();
  auto whole = build_aggregator(3, 0, 2);
  whole->set_wire_chunk_bytes(0);  // whole-buffer single chunk
  whole->run_round();
  EXPECT_EQ(0, std::memcmp(chunked->global_params().data(),
                           whole->global_params().data(),
                           whole->global_params().size() * sizeof(float)));
}

TEST(Aggregator, CheckpointCadenceIsConfigurable) {
  auto make = [&](int every) {
    std::vector<std::unique_ptr<LLMClient>> clients;
    for (int i = 0; i < 2; ++i) {
      clients.push_back(std::make_unique<LLMClient>(
          i, tiny_client_config(),
          tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
    }
    AggregatorConfig ac;
    ac.local_steps = 1;
    ac.parallel_clients = false;
    ac.checkpoint_every = every;
    return std::make_unique<Aggregator>(tiny_model(), ac,
                                        make_server_opt("fedavg", 1.0f, 0.0f),
                                        std::move(clients), 55);
  };
  auto thinned = make(2);
  thinned->run_round();  // round 0: checkpointed
  thinned->run_round();  // round 1: skipped
  EXPECT_EQ(thinned->checkpoints().latest()->round, 0u);
  EXPECT_EQ(thinned->checkpoints().journal_last_committed(), 0);

  auto never = make(0);
  never->run_round();
  EXPECT_FALSE(never->checkpoints().latest().has_value());
  EXPECT_FALSE(never->restore_latest_checkpoint());
}

// ------------------------------------------------------- fault tolerance --

std::unique_ptr<Aggregator> build_fault_aggregator(
    AggregatorConfig ac, const std::string& opt = "fedavg",
    int population = 3, const std::string& link_codec = "") {
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < population; ++i) {
    auto cfg = tiny_client_config();
    cfg.link_codec = link_codec;
    clients.push_back(std::make_unique<LLMClient>(
        i, cfg, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
  }
  ac.seed = 33;
  return std::make_unique<Aggregator>(tiny_model(), ac,
                                      make_server_opt(opt, 0.5f, 0.9f),
                                      std::move(clients), 55);
}

TEST(FaultEngine, CrashedClientIsDroppedAndMeanReweightedToSurvivors) {
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;  // asserts the plaintext ring->PS fallback
  ac.local_steps = 2;
  ac.parallel_clients = false;
  auto agg = build_fault_aggregator(ac, "fedavg");
  agg->set_client_fault_hook([](std::uint32_t round, int client,
                                std::uint32_t) {
    ClientRoundFault f;
    f.crash = round == 0 && client == 1;
    return f;
  });
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.survivors, 2);
  EXPECT_EQ(rec.dropped_clients, (std::vector<int>{1}));
  EXPECT_EQ(rec.crashed_clients, 1);
  EXPECT_TRUE(rec.topology_fallback);  // default AR ring lost a peer
  // The crashed client consumed no data and the mean is over survivors.
  EXPECT_EQ(agg->client_trained_rounds(), (std::vector<std::uint32_t>{1, 0, 1}));
  EXPECT_EQ(rec.tokens_this_round, 2u * 2u * 2u * 16u);
  // Round 1 with no faults: everyone participates again.
  const RoundRecord rec1 = agg->run_round();
  EXPECT_EQ(rec1.survivors, 3);
  EXPECT_TRUE(rec1.dropped_clients.empty());
  EXPECT_FALSE(rec1.topology_fallback);
}

TEST(FaultEngine, StragglerPastDeadlineIsCutWithoutConsumingData) {
  AggregatorConfig ac;
  ac.local_steps = 2;  // 2.0 simulated seconds at throughput 1
  ac.parallel_clients = false;
  ac.round_deadline_s = 3.0;
  auto agg = build_fault_aggregator(ac);
  agg->set_client_fault_hook([](std::uint32_t, int client, std::uint32_t) {
    ClientRoundFault f;
    if (client == 0) f.straggle_factor = 10.0;  // 20 s >> 3 s budget
    return f;
  });
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.straggler_drops, 1);
  EXPECT_EQ(rec.survivors, 2);
  EXPECT_EQ(rec.dropped_clients, (std::vector<int>{0}));
  // Cut before training: its data stream must not advance.
  EXPECT_EQ(agg->client_trained_rounds(), (std::vector<std::uint32_t>{0, 1, 1}));
  // Survivors' simulated time stays within the deadline.
  EXPECT_GT(rec.sim_slowest_client_seconds, 3.0);  // includes the cut one
}

TEST(FaultEngine, DeadLinkDropsClientAfterRetries) {
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.retry.max_attempts = 3;
  auto agg = build_fault_aggregator(ac);
  agg->link(2).set_fault_hook([](const Message&, int) {
    LinkFault f;
    f.drop = true;  // client 2's link is dead
    return f;
  });
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.link_failed_clients, 1);
  EXPECT_EQ(rec.dropped_clients, (std::vector<int>{2}));
  EXPECT_EQ(rec.link_retries, 2u);  // 3 attempts = 2 retries
  EXPECT_GT(rec.backoff_seconds, 0.0);
  EXPECT_EQ(agg->link_stats(2).aborted_messages, 1u);
}

TEST(FaultEngine, QuorumLossResamplesAFreshCohort) {
  AggregatorConfig ac;
  ac.clients_per_round = 2;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.min_cohort_fraction = 1.0;
  ac.max_cohort_retries = 3;
  auto agg = build_fault_aggregator(ac, "fedavg", /*population=*/8);
  agg->set_client_fault_hook([](std::uint32_t, int, std::uint32_t attempt) {
    ClientRoundFault f;
    f.crash = attempt == 0;  // the whole first cohort dies
    return f;
  });
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.cohort_retries, 1u);
  EXPECT_EQ(rec.survivors, 2);
  EXPECT_EQ(rec.crashed_clients, 2);  // the first cohort, counted
  // The final cohort is the salted resample, not the round's base cohort.
  ClientSampler reference(8, 33);
  const std::vector<MembershipState> active(8, MembershipState::kActive);
  EXPECT_EQ(rec.participants, reference.sample(active, 2, 0, 1));
  EXPECT_NE(rec.participants, reference.sample(active, 2, 0, 0));
}

TEST(FaultEngine, QuorumExhaustionThrows) {
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.min_cohort_fraction = 0.5;
  ac.max_cohort_retries = 1;
  auto agg = build_fault_aggregator(ac);
  agg->set_client_fault_hook([](std::uint32_t, int, std::uint32_t) {
    ClientRoundFault f;
    f.crash = true;  // nobody ever survives
    return f;
  });
  EXPECT_THROW(agg->run_round(), std::runtime_error);
}

TEST(FaultEngine, RetriedCorruptionLeavesParamsBitIdentical) {
  // A corrupted-then-retransmitted wire must not change a single parameter
  // bit relative to a clean run — CRC detection plus retry is lossless.
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.parallel_clients = false;
  auto clean = build_fault_aggregator(ac);
  auto faulty = build_fault_aggregator(ac);
  for (int id = 0; id < faulty->population(); ++id) {
    faulty->link(id).set_fault_hook([id](const Message& m, int attempt) {
      LinkFault f;
      if (attempt == 1) {
        f.corrupt = hash_combine(m.round, static_cast<std::uint64_t>(id)) | 1;
      }
      return f;
    });
  }
  for (int r = 0; r < 2; ++r) {
    clean->run_round();
    const RoundRecord rec = faulty->run_round();
    EXPECT_GT(rec.corrupt_chunks, 0u);
    EXPECT_GT(rec.link_retries, 0u);
    EXPECT_TRUE(rec.dropped_clients.empty());
  }
  EXPECT_EQ(0, std::memcmp(clean->global_params().data(),
                           faulty->global_params().data(),
                           clean->global_params().size() * sizeof(float)));
}

TEST(FaultEngine, CorruptedBroadcastAttemptsLeaveEveryCodecBitIdentical) {
  // The broadcast decodes straight into the training thread's shell, so a
  // corrupted attempt has written flipped floats there when its CRC fails.
  // The retry that delivers must overwrite every one: with clients trained
  // in parallel and error feedback on, the global params and every
  // client's EF residual stay bit-identical to a clean twin's.
  for (const char* codec : {"", "q8", "q4"}) {
    SCOPED_TRACE(std::string("codec '") + codec + "'");
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.parallel_clients = true;
    auto clean = build_fault_aggregator(ac, "fedavg", 3, codec);
    auto faulty = build_fault_aggregator(ac, "fedavg", 3, codec);
    for (int id = 0; id < faulty->population(); ++id) {
      faulty->link(id).set_fault_hook([id](const Message& m, int attempt) {
        LinkFault f;
        if (m.type == MessageType::kModelBroadcast && attempt == 1) {
          f.corrupt = hash_combine(m.round, static_cast<std::uint64_t>(id)) | 1;
        }
        return f;
      });
    }
    std::uint64_t corrupt_chunks = 0;
    for (int r = 0; r < 3; ++r) {
      clean->run_round();
      const RoundRecord rec = faulty->run_round();
      corrupt_chunks += rec.corrupt_chunks;
      EXPECT_TRUE(rec.dropped_clients.empty());
    }
    EXPECT_GT(corrupt_chunks, 0u);
    EXPECT_EQ(0, std::memcmp(clean->global_params().data(),
                             faulty->global_params().data(),
                             clean->global_params().size() * sizeof(float)));
    for (int id = 0; id < clean->population(); ++id) {
      const std::vector<float>& want = clean->client(id).ef_residual();
      EXPECT_TRUE(same_bytes(want, faulty->client(id).ef_residual()))
          << "client " << id;
      if (std::string(codec) != "") {
        EXPECT_FALSE(want.empty());
      }
    }
  }
}

TEST(FaultEngine, CrashRecoveryIsBitExactWithStatefulServerOpt) {
  // An aggregator killed after round 2 and rebuilt from disk must finish
  // the run with parameters bit-identical to one that never crashed:
  // global params, Nesterov momentum, LR schedule position, and every
  // client's data-stream position all restore exactly.
  const auto base = std::filesystem::temp_directory_path() /
                    "photon_recovery_test";
  std::filesystem::remove_all(base);
  auto config_for = [&](const char* leaf) {
    AggregatorConfig ac;
    ac.clients_per_round = 2;  // partial participation: streams desync
    ac.local_steps = 2;
    ac.parallel_clients = false;
    ac.checkpoint_dir = base / leaf;
    return ac;
  };

  auto ref = build_fault_aggregator(config_for("ref"), "nesterov");
  for (int r = 0; r < 5; ++r) ref->run_round();

  {
    auto crashed = build_fault_aggregator(config_for("crash"), "nesterov");
    for (int r = 0; r < 3; ++r) crashed->run_round();
    // process dies here
  }
  auto recovered = build_fault_aggregator(config_for("crash"), "nesterov");
  ASSERT_TRUE(recovered->restore_latest_checkpoint());
  EXPECT_EQ(recovered->round(), 3u);
  EXPECT_EQ(recovered->schedule_step_base(), 3 * 2);
  for (int r = 3; r < 5; ++r) recovered->run_round();

  ASSERT_EQ(ref->global_params().size(), recovered->global_params().size());
  EXPECT_EQ(0, std::memcmp(ref->global_params().data(),
                           recovered->global_params().data(),
                           ref->global_params().size() * sizeof(float)));
  EXPECT_EQ(ref->client_trained_rounds(), recovered->client_trained_rounds());
  EXPECT_EQ(ref->schedule_step_base(), recovered->schedule_step_base());
  // Per-round telemetry of the replayed rounds matches too.
  for (int r = 3; r < 5; ++r) {
    const auto& a = ref->history().records()[static_cast<std::size_t>(r)];
    const auto& b = recovered->history()
                        .records()[static_cast<std::size_t>(r - 3)];
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_DOUBLE_EQ(a.mean_train_loss, b.mean_train_loss);
    EXPECT_DOUBLE_EQ(a.update_norm, b.update_norm);
  }
  std::filesystem::remove_all(base);
}

TEST(FaultEngine, RecoveryIsBitExactUnderActiveFaultInjection) {
  // Same crash/rebuild drill, but with the chaos injector live the whole
  // time: fault decisions are pure functions of (round, client, attempt),
  // so the post-recovery rounds replay the same crashes, stragglers, and
  // retransmissions and land on identical bits.
  const auto base = std::filesystem::temp_directory_path() /
                    "photon_chaos_recovery_test";
  std::filesystem::remove_all(base);
  FaultPlan plan;
  plan.seed = 77;
  plan.crash_prob = 0.2;
  plan.straggle_prob = 0.2;
  plan.link_drop_prob = 0.05;
  plan.corrupt_prob = 0.1;
  const FaultInjector injector(plan);
  auto config_for = [&](const char* leaf) {
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.parallel_clients = false;
    ac.round_deadline_s = 3.0;
    ac.min_cohort_fraction = 0.25;
    ac.max_cohort_retries = 4;
    ac.checkpoint_dir = base / leaf;
    return ac;
  };

  auto ref = build_fault_aggregator(config_for("ref"), "nesterov", 4);
  injector.install(*ref);
  for (int r = 0; r < 5; ++r) ref->run_round();

  {
    auto crashed = build_fault_aggregator(config_for("crash"), "nesterov", 4);
    injector.install(*crashed);
    for (int r = 0; r < 3; ++r) crashed->run_round();
  }
  auto recovered = build_fault_aggregator(config_for("crash"), "nesterov", 4);
  injector.install(*recovered);
  ASSERT_TRUE(recovered->restore_latest_checkpoint());
  EXPECT_EQ(recovered->round(), 3u);
  for (int r = 3; r < 5; ++r) recovered->run_round();

  EXPECT_EQ(0, std::memcmp(ref->global_params().data(),
                           recovered->global_params().data(),
                           ref->global_params().size() * sizeof(float)));
  EXPECT_EQ(ref->client_trained_rounds(), recovered->client_trained_rounds());
  std::filesystem::remove_all(base);
}

/// Every deterministic RoundRecord field: all but the two wall-clock ones.
void expect_same_record(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.mean_train_loss, b.mean_train_loss);
  EXPECT_EQ(a.update_norm, b.update_norm);
  EXPECT_EQ(a.tokens_this_round, b.tokens_this_round);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  EXPECT_EQ(a.sim_comm_seconds, b.sim_comm_seconds);
  EXPECT_EQ(a.sim_local_seconds, b.sim_local_seconds);
  EXPECT_EQ(a.client_metrics, b.client_metrics);
  EXPECT_EQ(a.eval_perplexity, b.eval_perplexity);
  EXPECT_EQ(a.dropped_clients, b.dropped_clients);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.crashed_clients, b.crashed_clients);
  EXPECT_EQ(a.link_failed_clients, b.link_failed_clients);
  EXPECT_EQ(a.straggler_drops, b.straggler_drops);
  EXPECT_EQ(a.cohort_retries, b.cohort_retries);
  EXPECT_EQ(a.link_retries, b.link_retries);
  EXPECT_EQ(a.corrupt_chunks, b.corrupt_chunks);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.topology_fallback, b.topology_fallback);
  EXPECT_EQ(a.sim_slowest_client_seconds, b.sim_slowest_client_seconds);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.secure_round, b.secure_round);
  EXPECT_EQ(a.secagg_dropouts_recovered, b.secagg_dropouts_recovered);
  EXPECT_EQ(a.sim_privacy_seconds, b.sim_privacy_seconds);
  EXPECT_EQ(a.dp_epsilon, b.dp_epsilon);
}

/// A sync federation under faults and churn, killed after round 3 and
/// restored from disk into a fresh engine, is its uninterrupted twin from
/// there on: params, records, the sim clock and every span of rounds 3-5.
void expect_sync_crash_twin(std::uint64_t fault_seed) {
  SCOPED_TRACE("fault seed " + std::to_string(fault_seed));
  const auto base = std::filesystem::temp_directory_path() /
                    "photon_sync_churn_recovery";
  std::filesystem::remove_all(base);
  FaultPlan plan;
  plan.seed = fault_seed;
  plan.crash_prob = 0.15;
  plan.straggle_prob = 0.2;
  plan.link_drop_prob = 0.05;
  plan.corrupt_prob = 0.05;
  plan.membership.initial_population = 6;
  plan.membership.arrive_prob = 0.3;
  plan.membership.leave_prob = 0.05;
  const FaultInjector injector(plan);
  auto build = [&](const char* leaf, obs::Tracer* tracer) {
    AggregatorConfig ac;
    ac.clients_per_round = 3;
    ac.local_steps = 2;
    ac.parallel_clients = false;
    ac.round_deadline_s = 3.0;
    ac.min_cohort_fraction = 0.25;
    ac.max_cohort_retries = 4;
    ac.checkpoint_dir = base / leaf;
    ac.tracer = tracer;
    auto agg = build_fault_aggregator(ac, "nesterov", /*population=*/8);
    injector.install(*agg);
    return agg;
  };

  obs::Tracer ref_trace;
  auto ref = build("ref", &ref_trace);
  for (int r = 0; r < 3; ++r) ref->run_round();
  const double clock_at_kill = ref->sim_now();
  for (int r = 3; r < 6; ++r) ref->run_round();
  {
    auto doomed = build("crash", nullptr);
    for (int r = 0; r < 3; ++r) doomed->run_round();
  }  // dies here
  obs::Tracer revived_trace;
  auto revived = build("crash", &revived_trace);
  ASSERT_TRUE(revived->restore_latest_checkpoint());
  ASSERT_EQ(revived->round(), 3u);
  EXPECT_GT(clock_at_kill, 0.0);
  EXPECT_EQ(revived->sim_now(), clock_at_kill);
  for (int r = 3; r < 6; ++r) revived->run_round();

  EXPECT_EQ(0, std::memcmp(ref->global_params().data(),
                           revived->global_params().data(),
                           ref->global_params().size() * sizeof(float)));
  EXPECT_EQ(ref->sim_now(), revived->sim_now());
  EXPECT_EQ(ref->client_trained_rounds(), revived->client_trained_rounds());
  ASSERT_EQ(revived->history().records().size(), 3u);
  for (std::size_t r = 3; r < 6; ++r) {
    expect_same_record(ref->history().records()[r],
                       revived->history().records()[r - 3]);
  }
  for (int c = 0; c < ref->population(); ++c) {
    EXPECT_EQ(ref->membership_state(c), revived->membership_state(c));
  }

  std::vector<obs::TraceEvent> want;
  for (const obs::TraceEvent& e : ref_trace.drain()) {
    if (e.round >= 3) want.push_back(e);
  }
  const std::vector<obs::TraceEvent> got = revived_trace.drain();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "event " << i;
    EXPECT_EQ(got[i].round, want[i].round) << "event " << i;
    EXPECT_EQ(got[i].actor, want[i].actor) << "event " << i;
    EXPECT_EQ(got[i].detail, want[i].detail) << "event " << i;
    EXPECT_EQ(got[i].sim_begin, want[i].sim_begin) << "event " << i;
    EXPECT_EQ(got[i].sim_end, want[i].sim_end) << "event " << i;
  }
  if (obs::Tracer::compiled_in()) {
    EXPECT_FALSE(want.empty());
  }
  std::filesystem::remove_all(base);
}

TEST(FaultEngine, SyncCrashTwinWithMembershipPlanMatchesClockRecordsAndTrace) {
  // The checkpoint carries the sim clock, the membership states and every
  // link's running totals, so the restored run resumes at the saved sim
  // time (not at 0) and its round durations, differences of those totals,
  // match to the last bit.  Without the link totals, a record's
  // backoff_seconds differs in its last bit under seeds 87 and 93.
  for (const std::uint64_t seed : {87u, 91u, 93u}) expect_sync_crash_twin(seed);
}

TEST(FaultEngine, SyncRestoreUnderDifferentMembershipPlanKeepsSavedStates) {
  // The sync counterpart of AsyncFederation's replan test: a checkpoint
  // written under plan A restores into an engine configured with plan B.
  // The saved lifecycle states win for the past; plan B's future events
  // still fire.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_sync_replan";
  std::filesystem::remove_all(base);
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.checkpoint_dir = base;

  MembershipPlan plan_a;
  plan_a.initial_population = 3;  // client 3 absent under plan A
  {
    auto agg = build_fault_aggregator(ac, "fedavg", /*population=*/4);
    agg->set_membership_plan(plan_a);
    for (int r = 0; r < 2; ++r) agg->run_round();
    EXPECT_EQ(agg->membership_state(3), MembershipState::kAbsent);
  }

  MembershipPlan plan_b;  // everyone active initially, and a future leave
  plan_b.scheduled.push_back({3, 1, MembershipAction::kLeave});
  auto revived = build_fault_aggregator(ac, "fedavg", /*population=*/4);
  revived->set_membership_plan(plan_b);
  ASSERT_TRUE(revived->restore_latest_checkpoint());
  EXPECT_EQ(revived->membership_state(3), MembershipState::kAbsent);
  EXPECT_EQ(revived->membership_state(1), MembershipState::kActive);
  // Client 3 stays out of every cohort; plan B's leave fires at round 3.
  const RoundRecord r2 = revived->run_round();
  EXPECT_EQ(r2.participants, (std::vector<int>{0, 1, 2}));
  const RoundRecord r3 = revived->run_round();
  EXPECT_EQ(r3.departures, 1u);
  EXPECT_EQ(r3.participants, (std::vector<int>{0, 2}));
  EXPECT_EQ(revived->membership_state(1), MembershipState::kLeft);
  std::filesystem::remove_all(base);
}

TEST(Aggregator, RestoreRejectsMembershipOfAnotherPopulation) {
  // Membership is saved per client: a vector whose length is not the
  // population is refused before anything is restored.
  const auto dir =
      std::filesystem::temp_directory_path() / "photon_membership_length";
  std::filesystem::remove_all(dir);
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.checkpoint_dir = dir;
  Checkpoint saved;
  {
    auto agg = build_fault_aggregator(ac, "fedavg", /*population=*/4);
    agg->run_round();
    saved = *agg->checkpoints().latest();
  }
  ASSERT_EQ(saved.membership.size(), 4u);
  ASSERT_GT(saved.sim_now, 0.0);
  for (const std::size_t length : {3u, 5u}) {
    Checkpoint ckpt = saved;
    ckpt.membership.assign(length, MembershipState::kActive);
    CheckpointStore(dir).save(std::move(ckpt));
    auto fresh = build_fault_aggregator(ac, "fedavg", 4);
    const std::vector<float> before(fresh->global_params().begin(),
                                    fresh->global_params().end());
    EXPECT_THROW(fresh->restore_latest_checkpoint(), std::runtime_error)
        << length;
    EXPECT_EQ(fresh->round(), 0u);
    EXPECT_EQ(fresh->sim_now(), 0.0);
    EXPECT_EQ(0, std::memcmp(before.data(), fresh->global_params().data(),
                             before.size() * sizeof(float)));
    for (const std::uint32_t r : fresh->client_trained_rounds()) {
      EXPECT_EQ(r, 0u);
    }
  }
  CheckpointStore(dir).save(saved);
  auto whole = build_fault_aggregator(ac, "fedavg", 4);
  ASSERT_TRUE(whole->restore_latest_checkpoint());
  EXPECT_EQ(whole->sim_now(), saved.sim_now);
  std::filesystem::remove_all(dir);
}

TEST(Aggregator, RestoreRefusesBadServerOptStateBeforeChangingAnything) {
  // The ServerOpt state is checked with the rest of the checkpoint, before
  // restore changes anything: a truncated state, a momentum buffer sized
  // for another model, trailing bytes, and momentum restored into a
  // stateless FedAvg all throw and leave the engine and its optimizer as
  // they were.
  const auto dir =
      std::filesystem::temp_directory_path() / "photon_server_opt_state";
  std::filesystem::remove_all(dir);
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.checkpoint_dir = dir;
  Checkpoint saved;
  {
    auto agg = build_fault_aggregator(ac, "fedmom", /*population=*/4);
    agg->run_round();
    saved = *agg->checkpoints().latest();
  }
  const std::size_t n = saved.params.size();
  ASSERT_GT(saved.server_opt_state.size(), n * sizeof(float));
  const auto state_of = [](const ServerOpt& opt) {
    BinaryWriter w;
    opt.save_state(w);
    return w.bytes();
  };
  const auto buffer_of = [](std::size_t floats) {
    BinaryWriter w;
    w.write_vector(std::vector<float>(floats, 0.5f));
    return w.bytes();
  };
  std::vector<std::uint8_t> trailing = saved.server_opt_state;
  trailing.push_back(0);
  const struct {
    const char* what;
    const char* opt;
    std::vector<std::uint8_t> state;
  } cases[] = {
      {"3-byte state", "fedmom", {0x01, 0x02, 0x03}},
      {"5-float buffer", "fedmom", buffer_of(5)},
      {"trailing byte", "nesterov", trailing},
      {"momentum into fedavg", "fedavg", saved.server_opt_state},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    Checkpoint ckpt = saved;
    ckpt.server_opt_state = c.state;
    CheckpointStore(dir).save(std::move(ckpt));
    auto fresh = build_fault_aggregator(ac, c.opt, 4);
    // A live momentum buffer that the refusal must leave alone.
    std::vector<float> scratch(n, 0.0f);
    fresh->server_opt().apply(scratch, std::vector<float>(n, 0.25f));
    const auto opt_before = state_of(fresh->server_opt());
    const std::vector<float> before(fresh->global_params().begin(),
                                    fresh->global_params().end());
    EXPECT_THROW(fresh->restore_latest_checkpoint(), std::runtime_error);
    EXPECT_EQ(fresh->round(), 0u);
    EXPECT_EQ(fresh->sim_now(), 0.0);
    EXPECT_EQ(0, std::memcmp(before.data(), fresh->global_params().data(),
                             n * sizeof(float)));
    EXPECT_EQ(state_of(fresh->server_opt()), opt_before);
  }
  // A buffer of n floats, or an empty one (never applied), restores.
  for (const auto& state : {saved.server_opt_state, buffer_of(0)}) {
    Checkpoint ckpt = saved;
    ckpt.server_opt_state = state;
    CheckpointStore(dir).save(std::move(ckpt));
    auto fresh = build_fault_aggregator(ac, "fedmom", 4);
    ASSERT_TRUE(fresh->restore_latest_checkpoint());
    EXPECT_EQ(state_of(fresh->server_opt()), state);
  }
  std::filesystem::remove_all(dir);
}

TEST(FaultEngine, FaultedRunIsBitIdenticalAcrossThreadCounts) {
  FaultPlan plan;
  plan.seed = 13;
  plan.crash_prob = 0.25;
  plan.straggle_prob = 0.25;
  plan.corrupt_prob = 0.15;
  const FaultInjector injector(plan);
  auto config_for = [&](bool parallel) {
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.parallel_clients = parallel;
    ac.round_deadline_s = 4.0;
    ac.min_cohort_fraction = 0.25;
    ac.max_cohort_retries = 4;
    return ac;
  };
  auto serial = build_fault_aggregator(config_for(false), "fedavg", 4);
  auto parallel = build_fault_aggregator(config_for(true), "fedavg", 4);
  injector.install(*serial);
  injector.install(*parallel);
  for (int r = 0; r < 3; ++r) {
    const RoundRecord a = serial->run_round();
    const RoundRecord b = parallel->run_round();
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(a.dropped_clients, b.dropped_clients);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.crashed_clients, b.crashed_clients);
    EXPECT_EQ(a.straggler_drops, b.straggler_drops);
    EXPECT_EQ(a.link_retries, b.link_retries);
    EXPECT_EQ(a.corrupt_chunks, b.corrupt_chunks);
  }
  EXPECT_EQ(0, std::memcmp(serial->global_params().data(),
                           parallel->global_params().data(),
                           serial->global_params().size() * sizeof(float)));
}

TEST(FaultEngine, JournalRecordsTheRoundLifecycle) {
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  auto agg = build_fault_aggregator(ac);
  agg->run_round();
  agg->run_round();
  const auto& journal = agg->checkpoints().journal();
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal[0], "B 0");
  EXPECT_EQ(journal[1], "C 0");
  EXPECT_EQ(journal[2], "B 1");
  EXPECT_EQ(journal[3], "C 1");
  EXPECT_EQ(agg->checkpoints().journal_last_committed(), 1);
  EXPECT_TRUE(agg->restore_latest_checkpoint());
  EXPECT_EQ(agg->checkpoints().journal().back(), "R 2");
}

}  // namespace
}  // namespace photon
