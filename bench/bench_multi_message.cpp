// E13 — Lemma 2.3's k-message claim: one-to-all broadcast of k messages in
// O(D + k log n + log^6 n). Our colored-tree pipeline achieves
// period*(D + k); we sweep k at fixed D and D at fixed k, and verify the
// additive (not multiplicative) k-dependence.
#include <vector>

#include "core/multi_message.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/math.hpp"

using namespace radiocast;

// E13a: sweep k at fixed topology.
RADIOCAST_SCENARIO(multi_message_k, "multi-message-k",
                   "E13a: k-message broadcast rounds vs k (Lemma 2.3)") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(13);
  util::Rng rng(seed);

  const sim::Instance inst = sim::make_rgg_instance(
      quick ? 500 : 2000, quick ? 0.07 : 0.035, rng());
  util::Table t({"k", "rounds", "period", "ideal P*(D+k)",
                 "pipeline ratio"});
  std::vector<double> ks, rounds;
  for (std::uint32_t k : {1u, 4u, 16u, 64u, 256u}) {
    if (quick && k > 64) break;
    std::vector<radio::Payload> msgs(k);
    for (std::uint32_t i = 0; i < k; ++i) msgs[i] = i;
    const auto r = core::multi_message_broadcast(inst.g, msgs, {}, seed + k);
    if (!r.success) continue;
    const double ideal =
        static_cast<double>(r.period) * (inst.diameter + k);
    t.row()
        .add(std::uint64_t{k})
        .add(r.rounds, 0)
        .add(std::uint64_t{r.period})
        .add(ideal, 0)
        .add(r.pipeline_ratio, 3);
    ks.push_back(k);
    rounds.push_back(static_cast<double>(r.rounds));
  }
  ctx.emit(t, "E13a: k-message broadcast vs k on " + inst.name,
           "e13a_multi_message_k");
  if (ks.size() >= 3) {
    const auto fit = util::fit_linear(ks, rounds);
    ctx.note("marginal cost per extra message ~ " +
             util::format_double(fit.slope, 2) +
             " rounds (additive in k: Lemma 2.3's '+ k log n')");
  }
}

// E13b: sweep D at fixed k.
RADIOCAST_SCENARIO(multi_message_d, "multi-message-d",
                   "E13b: k-message broadcast rounds vs diameter (k=32)") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(13);

  util::Table t({"D", "rounds", "period", "pipeline ratio"});
  const std::uint32_t k = 32;
  std::vector<radio::Payload> msgs(k);
  for (std::uint32_t i = 0; i < k; ++i) msgs[i] = i;
  for (graph::NodeId d_target : {24u, 96u, 384u}) {
    const sim::Instance inst =
        sim::make_cliquepath_instance(quick ? 1024 : 2048, d_target);
    const auto r =
        core::multi_message_broadcast(inst.g, msgs, {}, seed + d_target);
    if (!r.success) continue;
    t.row()
        .add(std::uint64_t{inst.diameter})
        .add(r.rounds, 0)
        .add(std::uint64_t{r.period})
        .add(r.pipeline_ratio, 3);
  }
  ctx.emit(t, "E13b: k-message broadcast vs D (k=32)",
           "e13b_multi_message_d");
}
