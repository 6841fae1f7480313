// E5 — Lemma 2.1: Partition(beta) has strong diameter O(log n / beta) whp
// and cuts each edge with probability O(beta).
//
// Sweep beta over two decades on three families; report the cut fraction
// normalised by beta (must be O(1)) and strong-diameter quantiles
// normalised by log n / beta (must be O(1)).
#include <algorithm>
#include <string>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "cluster/partition_stats.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/math.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(partition, "partition",
                   "E5: Lemma 2.1 partition cut fraction and strong"
                   " diameter") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(5);
  const int reps = ctx.reps(2, 6);
  util::Rng rng(seed);

  std::vector<sim::Instance> instances;
  instances.push_back(sim::make_grid_instance(quick ? 40 : 80,
                                              quick ? 40 : 80));
  if (!quick) {
    instances.push_back(sim::make_rgg_instance(4000, 0.03, rng()));
    instances.push_back(sim::make_cliquepath_instance(4000, 400));
  }

  const std::vector<double> betas{0.02, 0.05, 0.1, 0.2, 0.4};

  for (std::size_t ii = 0; ii < instances.size(); ++ii) {
    const auto& inst = instances[ii];
    const double logn = util::safe_log2(inst.g.node_count());
    util::Table t({"beta", "cut frac", "cut/beta", "diam p50", "diam p95",
                   "diam max", "max/(logn/beta)", "#clusters"});
    for (std::size_t bi = 0; bi < betas.size(); ++bi) {
      const double beta = betas[bi];
      struct RepResult {
        double cut = 0.0;
        double clusters = 0.0;
        std::vector<double> diams;
      };
      const std::uint64_t base = util::mix_seed(seed, ii * 100 + bi);
      const auto per_rep = ctx.runner.map(reps, [&](int rep) {
        util::Rng rep_rng(util::mix_seed(base, rep));
        RepResult res;
        const auto p = cluster::partition(inst.g, beta, rep_rng);
        res.cut = cluster::cut_fraction(inst.g, p);
        const auto infos = cluster::cluster_infos(inst.g, p);
        res.clusters = static_cast<double>(infos.size());
        res.diams.reserve(infos.size());
        for (const auto& info : infos) {
          res.diams.push_back(static_cast<double>(
              std::max(info.strong_diameter_lb, info.strong_radius)));
        }
        return res;
      });
      util::OnlineStats cut, clusters;
      util::Sample diams;
      for (const auto& res : per_rep) {
        cut.add(res.cut);
        clusters.add(res.clusters);
        for (const double d : res.diams) diams.add(d);
      }
      t.row()
          .add(beta, 3)
          .add(cut.mean(), 4)
          .add(cut.mean() / beta, 3)
          .add(diams.quantile(0.5), 1)
          .add(diams.quantile(0.95), 1)
          .add(diams.max(), 1)
          .add(diams.max() / (logn / beta), 3)
          .add(clusters.mean(), 0);
    }
    // Named by family and n: rgg and cliquepath share n at full size.
    const std::string family = inst.name.substr(0, inst.name.find('('));
    ctx.emit(t, "E5: Lemma 2.1 partition properties on " + inst.name,
             "e5_partition_" + family + "_" +
                 std::to_string(inst.g.node_count()));
  }
}
