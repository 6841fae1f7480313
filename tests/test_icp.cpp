// Intra-Cluster Propagation windows (Algorithms 3 + 4) run one at a time
// through core::run_single_window, the entry point the E10/E11 experiments
// use.
#include <gtest/gtest.h>

#include "cluster/exponential_shifts.hpp"
#include "core/propagation.hpp"
#include "graph/generators.hpp"
#include "schedule/bfs_schedule.hpp"

namespace radiocast::core {
namespace {

using cluster::Partition;
using radio::kNoPayload;
using radio::Payload;
using schedule::ScheduleMode;
using schedule::TreeSchedule;

/// One cluster covering path(n), centre = node 0, parent = v - 1.
Partition whole_path_cluster(graph::NodeId n) {
  Partition p;
  p.beta = 0.1;
  p.center.assign(n, 0);
  p.dist_to_center.resize(n);
  p.parent.resize(n);
  p.delta.assign(n, 0.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    p.dist_to_center[v] = v;
    p.parent[v] = v == 0 ? 0 : v - 1;
  }
  return p;
}

// E10a's claim: one window on path(2 ell + 1) costs exactly 3 ell rounds in
// pipelined mode and 3 ell * period in colored mode. The pipelined waves
// inform exactly nodes 0..ell; colored waves go through the medium, so the
// depth-ell transmitters are also overheard by node ell + 1.
TEST(SingleWindow, CostsThreePassesAndInformsTheHopBudget) {
  for (const std::uint32_t ell : {8u, 16u, 32u, 64u}) {
    const graph::NodeId n = 2 * ell + 1;
    const graph::Graph g = graph::path(n);
    const Partition p = whole_path_cluster(n);
    for (const ScheduleMode mode :
         {ScheduleMode::kPipelined, ScheduleMode::kColored}) {
      const TreeSchedule sched(g, p, mode);
      std::vector<Payload> best(n, kNoPayload);
      best[0] = 77;
      util::Rng rng(ell);
      const auto stats =
          run_single_window(g, sched, ell, /*icp_background=*/false,
                            /*seed=*/1, best, rng);
      const std::uint64_t period =
          mode == ScheduleMode::kColored ? sched.period() : 1;
      EXPECT_EQ(stats.main_rounds, 3 * ell * period) << ell;
      EXPECT_EQ(stats.background_rounds, 0u);
      EXPECT_EQ(stats.windows_started, 2u);
      const graph::NodeId reach =
          mode == ScheduleMode::kColored ? ell + 1 : ell;
      for (graph::NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(best[v], v <= reach ? 77u : kNoPayload)
            << "ell=" << ell << " node " << v;
      }
    }
  }
}

TEST(SingleWindow, InwardPassLiftsHigherMessageToCenter) {
  const graph::Graph g = graph::path(20);
  const Partition p = whole_path_cluster(20);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(20, kNoPayload);
  best[0] = 10;  // centre's value
  best[6] = 99;  // a deeper node knows better
  util::Rng rng(2);
  run_single_window(g, sched, 8, false, 1, best, rng);
  EXPECT_EQ(best[0], 99u);  // centre adopted the max (pass 2)
  for (graph::NodeId v = 0; v <= 8; ++v) {
    EXPECT_EQ(best[v], 99u) << v;  // redistributed outward (pass 3)
  }
}

TEST(SingleWindow, NodeBeyondBudgetDoesNotReachCenter) {
  const graph::Graph g = graph::path(20);
  const Partition p = whole_path_cluster(20);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(20, kNoPayload);
  best[0] = 10;
  best[15] = 99;  // beyond the 8-hop curtail
  util::Rng rng(3);
  run_single_window(g, sched, 8, false, 1, best, rng);
  EXPECT_EQ(best[0], 10u);  // curtail respected
}

TEST(SingleWindow, BackgroundInterleavesOneToOne) {
  const graph::Graph g = graph::path(10);
  const Partition p = whole_path_cluster(10);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(10, kNoPayload);
  best[0] = 1;
  util::Rng rng(4);
  const auto stats =
      run_single_window(g, sched, 5, /*icp_background=*/true, 1, best, rng);
  EXPECT_EQ(stats.main_rounds, 15u);  // 3 passes x 5 hops
  EXPECT_EQ(stats.background_rounds, 15u);
}

TEST(SingleWindow, EmptyCentersProduceNoTraffic) {
  const graph::Graph g = graph::path(6);
  const Partition p = whole_path_cluster(6);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(6, kNoPayload);  // nobody knows anything
  util::Rng rng(8);
  const auto stats = run_single_window(g, sched, 3, true, 1, best, rng);
  EXPECT_EQ(stats.wave_deliveries, 0u);
  EXPECT_EQ(stats.decay_deliveries, 0u);
  for (auto b : best) EXPECT_EQ(b, kNoPayload);
}

/// Deterministic-collision gadget: path 0-1-2 with clusters A={0,1}
/// (centre 0) and B={2} (centre 2). At wave time 0 both centres transmit;
/// node 1's delivery from its parent is garbled by the foreign centre 2 on
/// every outward pass.
struct RiskyGadget {
  graph::Graph g = graph::path(3);
  Partition p;
  RiskyGadget() {
    p.beta = 0.1;
    p.center = {0, 0, 2};
    p.dist_to_center = {0, 1, 0};
    p.parent = {0, 0, 2};
    p.delta.assign(3, 0.0);
  }
};

TEST(SingleWindow, ForeignClusterBlocksRiskyNodeWithoutBackground) {
  RiskyGadget gadget;
  const TreeSchedule sched(gadget.g, gadget.p, ScheduleMode::kPipelined);
  std::vector<Payload> best{50, kNoPayload, 60};
  util::Rng rng(5);
  const auto stats = run_single_window(gadget.g, sched, 2, false, 1, best, rng);
  // Both outward passes block node 1, and nothing can rescue it.
  EXPECT_GE(stats.wave_blocked, 2u);
  EXPECT_EQ(best[1], kNoPayload);
}

TEST(SingleWindow, BackgroundRescuesRiskyNodes) {
  // Same gadget with Algorithm 4 enabled: the per-cluster coordinated
  // coins eventually let cluster A transmit alone, informing node 1. Node 1
  // may also hear the foreign centre (best set without a rescue), so keep
  // running windows until a same-cluster rescue exercises the mechanism.
  RiskyGadget gadget;
  const TreeSchedule sched(gadget.g, gadget.p, ScheduleMode::kPipelined);
  std::vector<Payload> best{50, kNoPayload, 60};
  util::Rng rng(6);
  std::uint64_t rescued = 0;
  for (std::uint64_t w = 0; w < 200 && rescued == 0; ++w) {
    rescued += run_single_window(gadget.g, sched, 2, true, w, best, rng).rescued;
  }
  EXPECT_GT(rescued, 0u);
  EXPECT_NE(best[1], kNoPayload);
}

TEST(SingleWindow, ColoredModeInformsPhysically) {
  util::Rng rng(7);
  const graph::Graph g = graph::grid(10, 10);
  const Partition p = cluster::partition(g, 0.15, rng);
  const TreeSchedule sched(g, p, ScheduleMode::kColored);
  std::vector<Payload> best(g.node_count(), kNoPayload);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (p.is_center(v)) best[v] = 100 + v;  // every centre starts with a value
  }
  const auto stats = run_single_window(g, sched, sched.max_depth() + 1, true,
                                       1, best, rng);
  EXPECT_GT(stats.wave_deliveries, 0u);
  // Every node heard something (its own cluster's wave at least).
  std::size_t informed = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    informed += best[v] != kNoPayload;
  }
  EXPECT_GT(informed, g.node_count() * 3 / 4);
}
}  // namespace
}  // namespace radiocast::core
