#include "core/compete.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "cluster/hierarchy.hpp"
#include "core/theory.hpp"
#include "schedule/bfs_schedule.hpp"
#include "util/math.hpp"

namespace radiocast::core {

CompeteResult compete(const graph::Graph& g, std::uint32_t diameter,
                      const std::vector<CompeteSource>& sources,
                      const CompeteParams& params, std::uint64_t seed) {
  const NodeId n = g.node_count();
  if (n == 0) throw std::invalid_argument("compete: empty graph");
  CompeteResult result;
  result.best.assign(n, radio::kNoPayload);
  for (const auto& s : sources) {
    if (s.node >= n) throw std::out_of_range("compete: source out of range");
    if (s.value == radio::kNoPayload) {
      throw std::invalid_argument(
          "compete: source value is the kNoPayload sentinel");
    }
    radio::fold_max(result.best[s.node], s.value);
    radio::fold_max(result.winner, s.value);
  }
  if (sources.empty()) {
    result.success = true;  // vacuous: nothing to propagate
    return result;
  }

  util::Rng rng(seed);
  const double d = static_cast<double>(std::max<std::uint32_t>(2, diameter));
  const double log_n = util::safe_log2(static_cast<double>(n));
  const double log_d = util::safe_log2(d);

  // ---- Algorithm 1 steps 1-6: hierarchy + schedules (charged) -------------
  cluster::Hierarchy hierarchy(g, diameter, params.hierarchy, rng);
  hierarchy.set_randomize(params.randomize_beta);
  result.precompute_rounds_charged += hierarchy.charged_precompute_rounds();

  std::vector<std::unique_ptr<schedule::TreeSchedule>> main_scheds;
  std::vector<const schedule::TreeSchedule*> main_sched_ptrs;
  for (std::size_t ji = 0; ji < hierarchy.j_values().size(); ++ji) {
    for (std::uint32_t r = 0; r < hierarchy.reps_per_j(); ++r) {
      main_scheds.push_back(std::make_unique<schedule::TreeSchedule>(
          g, hierarchy.fine(ji, r), params.mode));
      main_sched_ptrs.push_back(main_scheds.back().get());
    }
  }

  // Main-process curtail: ell(j) = c * log n * 2^j / log D  (Theorem 2.2's
  // O(log n / (beta log D)) with beta = 2^-j). The HW ablation multiplies
  // by log log n — exactly the factor Theorem 2.2 removes.
  const double hw_factor =
      params.hw_curtail ? std::max(1.0, std::log2(log_n)) : 1.0;
  const double curtail_c = params.curtail_constant * hw_factor;
  auto choose_main = [&hierarchy, curtail_c, log_n, log_d](
                         NodeId center, std::uint64_t pos) -> WindowChoice {
    const auto c = hierarchy.sequence_choice(center, pos);
    WindowChoice w;
    w.sched_index = static_cast<std::uint32_t>(
        c.j_index * hierarchy.reps_per_j() + c.rep);
    w.pass_hops = static_cast<std::uint32_t>(
        std::ceil(curtail_c * log_n / (c.beta * log_d)));
    return w;
  };

  PropagationEngine::Config main_cfg;
  main_cfg.graph = &g;
  main_cfg.regions = &hierarchy.coarse();
  main_cfg.scheds = main_sched_ptrs;
  main_cfg.choose = choose_main;
  main_cfg.icp_background = params.enable_icp_background;
  main_cfg.seed = rng();
  PropagationEngine main_engine(main_cfg);

  // ---- Algorithm 2: background process ------------------------------------
  std::unique_ptr<cluster::Partition> bg_regions;
  std::vector<std::unique_ptr<cluster::Partition>> bg_parts;
  std::vector<std::unique_ptr<schedule::TreeSchedule>> bg_scheds;
  std::vector<const schedule::TreeSchedule*> bg_sched_ptrs;
  std::unique_ptr<PropagationEngine> bg_engine;
  if (params.enable_background) {
    bg_regions = std::make_unique<cluster::Partition>(
        cluster::trivial_partition(n));
    const double bg_beta = util::fpow(d, params.bg_beta_exponent);
    const std::uint32_t bg_reps = std::min<std::uint32_t>(
        params.max_bg_clusterings,
        static_cast<std::uint32_t>(
            std::max(1.0, std::ceil(util::fpow(d, params.bg_reps_exponent)))));
    for (std::uint32_t r = 0; r < bg_reps; ++r) {
      // TreeSchedule keeps a pointer to its partition; give the partition
      // stable storage for the lifetime of the run.
      bg_parts.push_back(std::make_unique<cluster::Partition>(
          cluster::partition(g, bg_beta, rng)));
      result.precompute_rounds_charged +=
          cluster::precompute_rounds(n, bg_beta);
      bg_scheds.push_back(std::make_unique<schedule::TreeSchedule>(
          g, *bg_parts.back(), params.mode));
      bg_sched_ptrs.push_back(bg_scheds.back().get());
    }
    const std::uint32_t bg_hops = static_cast<std::uint32_t>(
        std::ceil(params.bg_curtail_constant * log_n / bg_beta));
    auto choose_bg = [bg_reps, bg_hops](NodeId, std::uint64_t pos) {
      WindowChoice w;
      w.sched_index = static_cast<std::uint32_t>(pos % bg_reps);
      w.pass_hops = bg_hops;
      return w;
    };
    PropagationEngine::Config bg_cfg;
    bg_cfg.graph = &g;
    bg_cfg.regions = bg_regions.get();
    bg_cfg.scheds = bg_sched_ptrs;
    bg_cfg.choose = choose_bg;
    bg_cfg.icp_background = params.enable_icp_background;
    bg_cfg.seed = rng();
    bg_engine = std::make_unique<PropagationEngine>(bg_cfg);
  }

  // ---- run, interleaving the two processes 1:1 ----------------------------
  const double bound =
      theory::bound_compete(n, std::max<std::uint32_t>(2, diameter),
                            sources.size());
  const std::uint64_t budget = std::min<std::uint64_t>(
      params.max_rounds_abs,
      static_cast<std::uint64_t>(params.round_budget_factor * bound));

  std::uint64_t rounds = 0;
  std::uint32_t since_check = 0;
  auto all_informed = [&]() {
    for (NodeId v = 0; v < n; ++v) {
      if (result.best[v] != result.winner) return false;
    }
    return true;
  };
  bool done = all_informed();
  while (!done && rounds < budget) {
    // Every engine coin hashes its Config::seed; step draws nothing.
    rounds += main_engine.step(result.best, rng);
    if (bg_engine) rounds += bg_engine->step(result.best, rng);
    if (++since_check >= params.check_interval) {
      since_check = 0;
      done = all_informed();
    }
  }
  if (!done) done = all_informed();

  result.rounds = rounds;
  result.success = done;
  result.informed = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (result.best[v] == result.winner) ++result.informed;
  }
  result.main_stats = main_engine.stats();
  if (bg_engine) result.background_stats = bg_engine->stats();
  return result;
}

}  // namespace radiocast::core
