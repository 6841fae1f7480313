// E1 — Theorem 5.1 shape: broadcasting time versus diameter D at fixed n.
//
// Paper claim: Czumaj-Davies broadcasts in O(D log n / log D + polylog n),
// i.e. the per-hop rate rounds/D falls like log n / log D as D grows,
// while BGI pays log n per hop and CR/KP pays log(n/D) per hop. We sweep D
// at fixed n on the path-of-cliques family (the D-polynomial-in-n regime)
// and report measured rounds against the analytic curves.
//
// Results are recorded through exp::Accumulator and rendered in the
// sweep's long format — one row per (D, algorithm) with success counts,
// Wilson intervals, round statistics, and the matching core/theory bound
// overlay — so this scenario's bench_out shapes match `sweep`'s.
#include <array>
#include <cmath>
#include <vector>

#include "baselines/hw_broadcast.hpp"
#include "core/broadcast.hpp"
#include "core/compete_batched.hpp"
#include "core/theory.hpp"
#include "exp/accumulator.hpp"
#include "exp/report.hpp"
#include "radio/network.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(broadcast_vs_d, "broadcast-vs-d",
                   "E1: broadcast rounds vs diameter at fixed n (Theorem 5.1"
                   " shape)") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(1);
  const auto n = static_cast<graph::NodeId>(
      ctx.cli.get_uint("n", quick ? 1024 : 4096));
  const int reps = ctx.reps(1, 3);

  const std::vector<graph::NodeId> d_targets =
      quick ? std::vector<graph::NodeId>{24, 96, 384}
            : std::vector<graph::NodeId>{16, 32, 64, 128, 256, 512};

  constexpr std::size_t kAlgorithms = 4;
  const std::array<std::string_view, kAlgorithms> names{"cd", "hw", "bgi",
                                                        "cr"};

  util::Table t(exp::long_headers(/*timing=*/false));
  util::Json points = util::Json::array();
  std::vector<double> ds, cd_rates;
  for (const auto d_target : d_targets) {
    if (d_target >= n / 2) continue;
    const sim::Instance inst = sim::make_cliquepath_instance(n, d_target);
    const auto outs = ctx.runner.map(reps, [&](int rep) {
      const std::uint64_t s = util::mix_seed(
          util::mix_seed(seed, d_target), static_cast<std::uint64_t>(rep));
      std::array<double, kAlgorithms> m;
      m.fill(std::nan(""));
      const auto rc = core::broadcast(inst.g, inst.diameter, 0, 7,
                                      core::CompeteParams{}, s);
      if (rc.success) m[0] = static_cast<double>(rc.rounds);
      const auto rh = baselines::hw_broadcast(inst.g, inst.diameter, 0, 7, s);
      if (rh.success) m[1] = static_cast<double>(rh.rounds);
      // BGI and CR: one replication each on a 1-lane scalar Network.
      radio::Network net(inst.g);
      const std::uint64_t one[] = {s};
      const auto rb = core::compete_batched(
          net, {{0, 7}}, core::bgi_params(inst.g.node_count()), one)[0];
      if (rb.success) m[2] = static_cast<double>(rb.rounds);
      const auto rr = core::compete_batched(
          net, {{0, 7}},
          core::cr_params(inst.g.node_count(), inst.diameter), one)[0];
      if (rr.success) m[3] = static_cast<double>(rr.rounds);
      return m;
    });
    const std::array<double, kAlgorithms> bounds{
        core::theory::bound_cd(n, inst.diameter),
        core::theory::bound_hw(n, inst.diameter),
        core::theory::bound_bgi(n, inst.diameter),
        core::theory::bound_crkp(n, inst.diameter)};
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      exp::Accumulator acc;
      for (const auto& m : outs) {
        const bool ok = !std::isnan(m[a]);
        acc.add(ok, ok ? m[a] : 0.0);
      }
      acc.set_theory_bound(bounds[a]);
      const exp::PointMeta meta{.family = "cliquepath",
                                .param_name = "d",
                                .param = static_cast<double>(d_target),
                                .n = inst.g.node_count(),
                                .diameter = inst.diameter,
                                .protocol = std::string(names[a]),
                                .medium = "scalar",
                                .recovery = "",
                                .lanes = 1};
      exp::add_long_row(t, meta, acc, /*timing=*/false);
      points.push_back(exp::point_json(meta, acc, /*timing=*/false));
      if (a == 0 && acc.rounds().count() > 0) {
        ds.push_back(static_cast<double>(inst.diameter));
        cd_rates.push_back(acc.rounds().mean() / inst.diameter);
      }
    }
  }
  ctx.emit(t, "E1: broadcast rounds vs D (fixed n) — Theorem 5.1 shape",
           "e1_broadcast_vs_d");
  util::Json payload = util::Json::object();
  payload.set("kind", "points");
  payload.set("points", std::move(points));
  ctx.emit_json("e1_broadcast_vs_d", std::move(payload));

  // Shape check: CD's per-hop rate must FALL as D grows (the log n/log D
  // signature); report the fitted trend.
  if (ds.size() >= 2) {
    const auto fit = util::fit_power(ds, cd_rates);
    ctx.note("CD per-hop rate ~ D^" + util::format_double(fit.exponent, 3) +
             " (negative exponent = paper's log n/log D shape; r2=" +
             util::format_double(fit.r2, 2) + ")");
  }
}
