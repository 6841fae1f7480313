// E10 — Lemma 2.3 substrate: the intra-cluster schedule moves a message to
// distance ell in O(ell) rounds in pipelined mode, and O(period * ell) in
// the fully-physical colored mode; colored periods stay small on
// bounded-degree families.
#include <string>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "core/propagation.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"

using namespace radiocast;

// E10a: rounds to reach distance ell on a single whole-path cluster.
RADIOCAST_SCENARIO(schedule_distance, "schedule-distance",
                   "E10a: intra-cluster schedule rounds-to-distance") {
  const std::uint64_t seed = ctx.seed(10);

  util::Table t({"ell", "pipelined rounds", "rounds/ell",
                 "colored rounds", "colored period"});
  for (std::uint32_t ell : {8u, 16u, 32u, 64u}) {
    util::Rng rng(util::mix_seed(seed, ell));
    const graph::Graph g = graph::path(2 * ell + 1);
    cluster::Partition p;
    const graph::NodeId n = g.node_count();
    p.beta = 0.01;
    p.center.assign(n, 0);
    p.dist_to_center.resize(n);
    p.parent.resize(n);
    p.delta.assign(n, 0.0);
    for (graph::NodeId v = 0; v < n; ++v) {
      p.dist_to_center[v] = v;
      p.parent[v] = v == 0 ? 0 : v - 1;
    }
    // One window without the background stream: 3 passes of ell hops.
    auto window_rounds = [&](const schedule::TreeSchedule& sched) {
      std::vector<radio::Payload> best(n, radio::kNoPayload);
      best[0] = 1;
      return core::run_single_window(g, sched, ell, /*icp_background=*/false,
                                     seed, best, rng)
          .main_rounds;
    };
    const schedule::TreeSchedule sp(g, p, schedule::ScheduleMode::kPipelined);
    const schedule::TreeSchedule sc(g, p, schedule::ScheduleMode::kColored);
    const std::uint64_t pipelined = window_rounds(sp);
    const std::uint64_t colored = window_rounds(sc);
    t.row()
        .add(std::uint64_t{ell})
        .add(pipelined, 0)
        .add(static_cast<double>(pipelined) / ell, 2)
        .add(colored, 0)
        .add(std::uint64_t{sc.period()});
  }
  ctx.emit(t, "E10a: schedule rounds-to-distance (one window = 3 passes)",
           "e10a_schedule_distance");
}

// E10b: colored-schedule period across families and betas.
RADIOCAST_SCENARIO(schedule_period, "schedule-period",
                   "E10b: colored-schedule period across graph families") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(10);
  const int reps = ctx.reps(2, 5);
  util::Rng rng(seed);

  util::Table t({"family", "beta", "period mean", "period max",
                 "max degree"});
  struct Fam {
    std::string name;
    graph::Graph g;
  };
  std::vector<Fam> fams;
  fams.push_back({"grid 40x40", graph::grid(40, 40)});
  fams.push_back({"rgg 1500", graph::random_geometric(1500, 0.04, rng)});
  fams.push_back({"cliquepath", graph::path_of_cliques(60, 12)});
  if (!quick) {
    fams.push_back({"gnp 1500", graph::gnp(1500, 0.004, rng)});
  }
  for (std::size_t fi = 0; fi < fams.size(); ++fi) {
    const auto& fam = fams[fi];
    for (double beta : {0.1, 0.3}) {
      const auto stats = ctx.runner.replicate(
          reps, util::mix_seed(seed, fi * 100 + std::uint64_t(beta * 10)), 1,
          [&](int, std::uint64_t s) {
            util::Rng rep_rng(s);
            const auto p = cluster::partition(fam.g, beta, rep_rng);
            const schedule::TreeSchedule sched(
                fam.g, p, schedule::ScheduleMode::kColored);
            return std::vector<double>{static_cast<double>(sched.period())};
          });
      const auto& period = stats[0];
      t.row()
          .add(fam.name)
          .add(beta, 2)
          .add(period.mean(), 1)
          .add(period.max(), 0)
          .add(std::uint64_t{fam.g.max_degree()});
    }
  }
  ctx.emit(t, "E10b: colored-schedule period (the Lemma 2.3 'polylog')",
           "e10b_schedule_period");
}
