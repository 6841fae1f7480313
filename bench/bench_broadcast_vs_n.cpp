// E2 — broadcasting time versus n at (approximately) fixed D.
//
// At fixed D, CD grows like D log n / log D + polylog n (slowly, through
// the log n factor), BGI like (D + log n) log n, CR like D log(n/D): the
// gap between the curves must widen with n.
//
// Results are recorded through exp::Accumulator and rendered in the
// sweep's long format — one row per (n, algorithm) with success counts,
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

using namespace radiocast;

RADIOCAST_SCENARIO(broadcast_vs_n, "broadcast-vs-n",
                   "E2: broadcast rounds vs n at fixed diameter") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(2);
  const auto d_target =
      static_cast<graph::NodeId>(ctx.cli.get_uint("d", 96));
  const int reps = ctx.reps(1, 3);

  const std::vector<graph::NodeId> ns =
      quick ? std::vector<graph::NodeId>{512, 2048}
            : std::vector<graph::NodeId>{512, 1024, 2048, 4096, 8192};

  constexpr std::size_t kAlgorithms = 4;
  const std::array<std::string_view, kAlgorithms> names{"cd", "hw", "bgi",
                                                        "cr"};

  util::Table t(exp::long_headers(/*timing=*/false));
  util::Json points = util::Json::array();
  for (const auto n : ns) {
    const sim::Instance inst = sim::make_cliquepath_instance(n, d_target);
    // One replication computes all four algorithms on the same instance
    // and seed (NaN = that algorithm failed to complete).
    const auto outs = ctx.runner.map(reps, [&](int rep) {
      const std::uint64_t s = util::mix_seed(util::mix_seed(seed, n),
                                             static_cast<std::uint64_t>(rep));
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
    }
  }
  ctx.emit(t, "E2: broadcast rounds vs n (fixed D)", "e2_broadcast_vs_n");
  util::Json payload = util::Json::object();
  payload.set("kind", "points");
  payload.set("points", std::move(points));
  ctx.emit_json("e2_broadcast_vs_n", std::move(payload));
}
