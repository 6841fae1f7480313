// E11 — Lemma 4.2: during Intra-Cluster Propagation, a node within the
// curtailed radius of its centre is "valid" (correctly exchanges messages
// with the centre despite inter-cluster collisions) with probability >=
// 0.99, thanks to the Algorithm 4 background rescue whose cost scales with
// the number q of bordering clusters.
//
// We run single ICP windows (core::run_single_window, the engine Compete
// runs) over real Partition(beta) clusterings, and
// measure (a) the fraction of in-radius nodes that received the outward
// wave (with and without the background), and (b) risky-node counts and
// the distribution of q (bordering clusters), the quantity Lemma 4.2's
// O(q log^2 n) rescue-time bound depends on.
#include <cmath>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "cluster/partition_stats.hpp"
#include "core/propagation.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/math.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(validity, "validity",
                   "E11: Lemma 4.2 ICP validity and background rescue") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(11);
  const int reps = ctx.reps(2, 5);
  util::Rng rng(seed);

  std::vector<sim::Instance> instances;
  instances.push_back(sim::make_grid_instance(quick ? 30 : 50,
                                              quick ? 30 : 50));
  if (!quick) {
    instances.push_back(sim::make_rgg_instance(2000, 0.04, rng()));
  }

  util::Table t({"graph", "beta", "risky frac", "q p95", "valid% bg ON",
                 "valid% bg OFF", "rescued/window"});
  for (const auto& inst : instances) {
    for (double beta : {0.15, 0.3}) {
      const std::uint64_t base = util::mix_seed(
          seed, inst.g.node_count() * 10 + std::uint64_t(beta * 100));
      const auto stats = ctx.runner.replicate(
          reps, base, 5, [&](int, std::uint64_t s) {
            util::Rng rep_rng(s);
            std::vector<double> m(5, std::nan(""));
            const auto p = cluster::partition(inst.g, beta, rep_rng);
            const auto risky = cluster::boundary_nodes(inst.g, p);
            std::uint32_t risky_count = 0;
            util::Sample qs;
            for (graph::NodeId v = 0; v < inst.g.node_count(); ++v) {
              risky_count += risky[v];
              if (risky[v]) {
                qs.add(cluster::bordering_clusters(inst.g, p, v));
              }
            }
            m[0] = static_cast<double>(risky_count) / inst.g.node_count();
            if (!qs.empty()) m[1] = qs.quantile(0.95);

            const std::uint32_t ell =
                1 + static_cast<std::uint32_t>(
                        util::safe_log2(inst.g.node_count()) / beta);
            for (int bg = 0; bg < 2; ++bg) {
              const schedule::TreeSchedule sched(
                  inst.g, p, schedule::ScheduleMode::kPipelined);
              std::vector<radio::Payload> best(inst.g.node_count(),
                                               radio::kNoPayload);
              for (graph::NodeId v = 0; v < inst.g.node_count(); ++v) {
                if (p.is_center(v)) best[v] = 100;
              }
              const auto wstats = core::run_single_window(
                  inst.g, sched, ell, /*icp_background=*/bg == 1,
                  util::mix_seed(s, bg), best, rep_rng);
              std::uint32_t in_radius = 0, got = 0;
              for (graph::NodeId v = 0; v < inst.g.node_count(); ++v) {
                if (p.dist_to_center[v] <= ell) {
                  ++in_radius;
                  got += best[v] != radio::kNoPayload;
                }
              }
              const double frac =
                  in_radius ? static_cast<double>(got) / in_radius : 1.0;
              if (bg == 1) {
                m[2] = frac;
                m[4] = static_cast<double>(wstats.rescued);
              } else {
                m[3] = frac;
              }
            }
            return m;
          });
      t.row()
          .add(inst.name)
          .add(beta, 2)
          .add(stats[0].mean(), 3)
          .add(stats[1].mean(), 1)
          .add(100.0 * stats[2].mean(), 1)
          .add(100.0 * stats[3].mean(), 1)
          .add(stats[4].mean(), 1);
    }
  }
  ctx.emit(t, "E11: Lemma 4.2 validity and background rescue",
           "e11_validity");
}
