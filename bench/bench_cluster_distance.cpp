// E4 — Theorem 2.2: for j uniform in [0.01 log D, 0.1 log D] and
// beta = 2^-j, with probability >= 0.55 over j the expected distance from
// a node to its Partition(beta) cluster centre is O(log n / (beta log D)).
//
// We sweep j over a widened range, estimate E[dist-to-centre] by averaging
// over nodes and repetitions, and report the normalised ratio
//   E[dist] * beta * log D / log n,
// which Theorem 2.2 says is O(1) for a >= 0.55 fraction of j. We also
// report the improvement over the Haeupler-Wajc bound (which carries an
// extra log log n).
#include <cmath>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "cluster/partition_stats.hpp"
#include "core/theory.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/math.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(cluster_distance, "cluster-distance",
                   "E4: Theorem 2.2 distance-to-centre vs beta") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(4);
  const int reps = ctx.reps(2, 6);
  util::Rng rng(seed);

  std::vector<sim::Instance> instances;
  instances.push_back(sim::make_cliquepath_instance(quick ? 2048 : 8192,
                                                    quick ? 256 : 768));
  if (!quick) {
    instances.push_back(sim::make_grid_instance(64, 128));
    instances.push_back(sim::make_rgg_instance(4096, 0.025, rng()));
  }

  for (const auto& inst : instances) {
    const double logn = util::safe_log2(inst.g.node_count());
    const double logd = util::safe_log2(inst.diameter);
    const std::uint32_t j_max = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(0.5 * logd));
    util::Table t({"j", "beta", "E[dist]", "bound logn/(b*logD)",
                   "ratio", "HW bound", "within 4x bound?"});
    std::uint32_t good = 0;
    for (std::uint32_t j = 1; j <= j_max; ++j) {
      const double beta = std::ldexp(1.0, -static_cast<int>(j));
      const auto stats = ctx.runner.replicate(
          reps, util::mix_seed(seed, inst.diameter * 1000 + j), 1,
          [&](int, std::uint64_t s) {
            util::Rng rep_rng(s);
            const auto p = cluster::partition(inst.g, beta, rep_rng);
            return std::vector<double>{cluster::mean_dist_to_center(p)};
          });
      const auto& dist = stats[0];
      const double bound = core::theory::bound_cluster_distance(
          inst.g.node_count(), inst.diameter, beta);
      const double ratio = dist.mean() / bound;
      const bool ok = ratio <= 4.0;
      good += ok;
      t.row()
          .add(std::uint64_t{j})
          .add(beta, 4)
          .add(dist.mean(), 2)
          .add(bound, 2)
          .add(ratio, 3)
          .add(bound * std::max(1.0, std::log2(logn)), 2)
          .add(ok ? "yes" : "NO");
    }
    ctx.emit(t, "E4: Theorem 2.2 distance-to-centre on " + inst.name,
             "e4_cluster_distance_" + std::to_string(inst.diameter));
    ctx.note("fraction of j within 4x bound: " + std::to_string(good) + "/" +
             std::to_string(j_max) +
             "  (Theorem 2.2 promises >= 0.55 of the [0.01,0.1]logD window)");
  }
}
