#include "eval/probes.hpp"

#include <algorithm>
#include <stdexcept>

namespace photon {
namespace {

/// Assemble a fixed-length (1, T) sequence ending in `option`, with targets
/// masked to the option positions only.
struct ScoredSequence {
  std::vector<int> tokens;
  std::vector<int> targets;
};

ScoredSequence assemble(const std::vector<int>& context,
                        const std::vector<int>& option, int seq_len) {
  if (static_cast<int>(option.size()) >= seq_len) {
    throw std::invalid_argument("probe: option longer than seq_len");
  }
  ScoredSequence s;
  s.tokens.assign(static_cast<std::size_t>(seq_len), SpecialTokens::kPad);
  s.targets.assign(static_cast<std::size_t>(seq_len), -1);

  // Right-align: [context tail][option]; predictions come from position
  // i predicting token i+1, so targets are set at the positions *before*
  // each option token.
  const int opt_len = static_cast<int>(option.size());
  const int ctx_space = seq_len - opt_len;
  const int ctx_len = std::min<int>(static_cast<int>(context.size()), ctx_space);
  const int ctx_start = ctx_space - ctx_len;
  for (int i = 0; i < ctx_len; ++i) {
    s.tokens[static_cast<std::size_t>(ctx_start + i)] =
        context[context.size() - static_cast<std::size_t>(ctx_len) +
                static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < opt_len; ++i) {
    s.tokens[static_cast<std::size_t>(ctx_space + i)] =
        option[static_cast<std::size_t>(i)];
    s.targets[static_cast<std::size_t>(ctx_space + i - 1)] =
        option[static_cast<std::size_t>(i)];
  }
  return s;
}

int content_token(Rng& rng, int vocab) {
  return SpecialTokens::kFirstContent +
         static_cast<int>(rng.next_below(
             static_cast<std::uint64_t>(vocab - SpecialTokens::kFirstContent)));
}

}  // namespace

double option_log_likelihood(GptModel& model, const std::vector<int>& context,
                             const std::vector<int>& option) {
  const int seq_len = model.config().seq_len;
  const ScoredSequence s = assemble(context, option, seq_len);
  // eval_loss returns mean NLL over unmasked targets; LL = -NLL.
  return -static_cast<double>(model.eval_loss(s.tokens, s.targets, 1, seq_len));
}

ProbeResult run_bigram_cloze(GptModel& model, const MarkovSource& corpus,
                             const ProbeConfig& config) {
  ProbeResult result;
  result.task = "bigram-cloze";
  result.random_baseline = 1.0 / config.num_options;
  Rng rng(hash_combine(config.seed, 0xB16A4ULL));
  const int vocab = model.config().vocab_size;
  int correct = 0;
  for (int c = 0; c < config.num_cases; ++c) {
    std::vector<int> context;
    corpus.generate(rng, static_cast<std::size_t>(model.config().seq_len), context);
    // True continuation: the most likely successor of the final token.
    // Distractors are OTHER legal successors, so the model must rank within
    // the plausible set (fine-grained distribution knowledge), not merely
    // reject impossible tokens.
    const int state = context.back();
    const auto row = corpus.transition_row(state);
    const int truth = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
    std::vector<std::pair<double, int>> legal;
    for (int t = 0; t < vocab; ++t) {
      if (t != truth && row[static_cast<std::size_t>(t)] > 0.0) {
        legal.emplace_back(row[static_cast<std::size_t>(t)], t);
      }
    }
    std::sort(legal.begin(), legal.end());  // least likely first
    std::vector<std::vector<int>> options{{truth}};
    for (const auto& [p, t] : legal) {
      if (static_cast<int>(options.size()) >= config.num_options) break;
      options.push_back({t});
    }
    while (static_cast<int>(options.size()) < config.num_options) {
      const int distractor = content_token(rng, vocab);
      if (row[static_cast<std::size_t>(distractor)] == 0.0) {
        options.push_back({distractor});
      }
    }
    double best = -1e30;
    std::size_t best_idx = 0;
    for (std::size_t o = 0; o < options.size(); ++o) {
      const double ll = option_log_likelihood(model, context, options[o]);
      if (ll > best) {
        best = ll;
        best_idx = o;
      }
    }
    if (best_idx == 0) ++correct;
  }
  result.cases = config.num_cases;
  result.accuracy = static_cast<double>(correct) / config.num_cases;
  return result;
}

ProbeResult run_induction_copy(GptModel& model, const MarkovSource& corpus,
                               const ProbeConfig& config) {
  ProbeResult result;
  result.task = "induction-copy";
  result.random_baseline = 1.0 / config.num_options;
  Rng rng(hash_combine(config.seed, 0x1D0C7ULL));
  const int vocab = model.config().vocab_size;
  const int seq_len = model.config().seq_len;
  int correct = 0;
  for (int c = 0; c < config.num_cases; ++c) {
    // Context: corpus text with the pair (x, y) planted several times,
    // ending with a final x; the answer is y.
    const int x = content_token(rng, vocab);
    int y = content_token(rng, vocab);
    while (y == x) y = content_token(rng, vocab);
    std::vector<int> context;
    corpus.generate(rng, static_cast<std::size_t>(seq_len), context);
    // Plant the pair every 8 tokens in the second half of the context.
    for (std::size_t pos = context.size() / 2; pos + 1 < context.size();
         pos += 8) {
      context[pos] = x;
      context[pos + 1] = y;
    }
    context.back() = x;

    std::vector<std::vector<int>> options{{y}};
    while (static_cast<int>(options.size()) < config.num_options) {
      const int distractor = content_token(rng, vocab);
      if (distractor != y && distractor != x) options.push_back({distractor});
    }
    double best = -1e30;
    std::size_t best_idx = 0;
    for (std::size_t o = 0; o < options.size(); ++o) {
      const double ll = option_log_likelihood(model, context, options[o]);
      if (ll > best) {
        best = ll;
        best_idx = o;
      }
    }
    if (best_idx == 0) ++correct;
  }
  result.cases = config.num_cases;
  result.accuracy = static_cast<double>(correct) / config.num_cases;
  return result;
}

ProbeResult run_continuation(GptModel& model, const MarkovSource& corpus,
                             const ProbeConfig& config) {
  ProbeResult result;
  result.task = "continuation";
  result.random_baseline = 1.0 / config.num_options;
  Rng rng(hash_combine(config.seed, 0xC0471ULL));
  const int seq_len = model.config().seq_len;
  constexpr int kOptLen = 8;
  int correct = 0;
  for (int c = 0; c < config.num_cases; ++c) {
    // Draw a contiguous corpus passage; the tail is the true continuation.
    std::vector<int> passage;
    corpus.generate(rng, static_cast<std::size_t>(seq_len + kOptLen), passage);
    std::vector<int> context(passage.begin(),
                             passage.end() - static_cast<std::ptrdiff_t>(kOptLen));
    std::vector<int> truth(passage.end() - static_cast<std::ptrdiff_t>(kOptLen),
                           passage.end());
    std::vector<std::vector<int>> options{truth};
    // Decoys: the true continuation with two positions replaced by random
    // content tokens (HellaSwag-style endings that keep most surface
    // statistics but break a couple of transitions).
    const int vocab = model.config().vocab_size;
    while (static_cast<int>(options.size()) < config.num_options) {
      std::vector<int> decoy = truth;
      for (int swaps = 0; swaps < 2; ++swaps) {
        const std::size_t pos = 1 + static_cast<std::size_t>(
                                        rng.next_below(decoy.size() - 1));
        decoy[pos] = content_token(rng, vocab);
      }
      if (decoy != truth) options.push_back(std::move(decoy));
    }
    double best = -1e30;
    std::size_t best_idx = 0;
    for (std::size_t o = 0; o < options.size(); ++o) {
      const double ll = option_log_likelihood(model, context, options[o]);
      if (ll > best) {
        best = ll;
        best_idx = o;
      }
    }
    if (best_idx == 0) ++correct;
  }
  result.cases = config.num_cases;
  result.accuracy = static_cast<double>(correct) / config.num_cases;
  return result;
}

std::vector<ProbeResult> run_all_probes(GptModel& model,
                                        const MarkovSource& corpus,
                                        const ProbeConfig& config) {
  return {run_bigram_cloze(model, corpus, config),
          run_induction_copy(model, corpus, config),
          run_continuation(model, corpus, config)};
}

}  // namespace photon
