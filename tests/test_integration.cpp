// Cross-module integration: the full paper pipeline plus the qualitative
// claims the evaluation reproduces (LE ~ BC time; binary-search LE slower;
// all algorithms agree on the same winner).
#include <gtest/gtest.h>

#include "baselines/hw_broadcast.hpp"
#include "baselines/le_binary_search.hpp"
#include "core/compete_batched.hpp"
#include "core/radiocast.hpp"

namespace radiocast {
namespace {

TEST(Integration, AllBroadcastAlgorithmsAgreeOnDeliveredMessage) {
  util::Rng rng(1);
  const graph::Graph g = graph::random_geometric(300, 0.08, rng);
  const auto d = std::max(2u, graph::diameter_double_sweep(g));
  const radio::Payload msg = 424242;

  const auto cd = core::broadcast(g, d, 7, msg, core::CompeteParams{}, 5);
  const auto hw = baselines::hw_broadcast(g, d, 7, msg, 5);
  const std::uint64_t seed[] = {5};
  const auto bgi = core::broadcast_batched(
      g, 7, msg, core::bgi_params(g.node_count()), seed)[0];
  EXPECT_TRUE(cd.success);
  EXPECT_TRUE(hw.success);
  EXPECT_TRUE(bgi.success);
  EXPECT_EQ(bgi.winner, msg);
}

TEST(Integration, LeaderElectionTimeTracksBroadcastTime) {
  // Theorem 5.2's headline: LE is no longer asymptotically harder than
  // broadcast. On the same graph, CD LE must be within a small factor of
  // CD broadcast (they run the same Compete machinery), while the
  // binary-search baseline pays an extra ~log n factor.
  const graph::Graph g = graph::path_of_cliques(30, 8);
  const auto d = graph::diameter_double_sweep(g);

  const auto bc = core::broadcast(g, d, 0, 1, core::CompeteParams{}, 3);
  const auto le = core::elect_leader(g, d, core::LeaderElectionParams{}, 3);
  const auto ble =
      baselines::binary_search_leader_election(g, d, {}, 3);
  ASSERT_TRUE(bc.success);
  ASSERT_TRUE(le.success);
  ASSERT_TRUE(ble.success);
  EXPECT_LT(le.rounds, 6 * bc.rounds + 2000);
  EXPECT_GT(ble.rounds, le.rounds);  // the paper's improvement
}

TEST(Integration, IoRoundTripThenBroadcast) {
  // Persist a generated topology, reload it, and run the full stack on the
  // reloaded copy.
  util::Rng rng(2);
  const graph::Graph g = graph::gnp(150, 0.04, rng);
  const std::string path = "/tmp/radiocast_integration.edges";
  ASSERT_TRUE(graph::write_edge_list_file(g, path));
  const graph::Graph h = graph::read_edge_list_file(path);
  std::remove(path.c_str());
  const auto d = std::max(2u, graph::diameter_double_sweep(h));
  const auto r = core::broadcast(h, d, 0, 9, core::CompeteParams{}, 4);
  EXPECT_TRUE(r.success);
}

TEST(Integration, HierarchyPartitionScheduleConsistency) {
  // Build the full Algorithm 1 preprocessing stack and check the
  // cross-module invariants the Compete engine relies on.
  util::Rng rng(3);
  const graph::Graph g = graph::grid(18, 18);
  const auto d = graph::diameter_double_sweep(g);
  const cluster::Hierarchy h(g, d, cluster::HierarchyParams{}, rng);
  for (std::size_t ji = 0; ji < h.j_values().size(); ++ji) {
    for (std::uint32_t rep = 0; rep < h.reps_per_j(); ++rep) {
      const auto& fine = h.fine(ji, rep);
      const schedule::TreeSchedule sched(g, fine,
                                         schedule::ScheduleMode::kPipelined);
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        // Engine invariant: tree children of v live in v's fine cluster
        // and one level deeper.
        for (graph::NodeId c : sched.children(v)) {
          EXPECT_EQ(fine.center[c], fine.center[v]);
          EXPECT_EQ(fine.dist_to_center[c], fine.dist_to_center[v] + 1);
        }
      }
    }
  }
}

TEST(Integration, CompeteWinnerIsInvariantAcrossConfigs) {
  const graph::Graph g = graph::grid(9, 9);
  std::vector<core::CompeteSource> sources{{0, 17}, {40, 23}, {80, 5}};
  for (int cfg = 0; cfg < 4; ++cfg) {
    core::CompeteParams p;
    p.enable_background = cfg != 1;
    p.enable_icp_background = cfg != 2;
    p.randomize_beta = cfg != 3;
    const auto r = core::compete(g, 16, sources, p, 100 + cfg);
    EXPECT_TRUE(r.success) << cfg;
    EXPECT_EQ(r.winner, 23u) << cfg;
  }
}

TEST(Integration, SpontaneousTransmissionsAreActuallyUsed) {
  // The model feature the paper exploits: nodes transmit before knowing
  // the source message (cluster centres start waves with their own best ==
  // none, but candidate/centre activity happens regardless). We check the
  // background engine produces transmissions from non-source nodes early.
  const graph::Graph g = graph::path_of_cliques(20, 6);
  const auto d = graph::diameter_double_sweep(g);
  const auto r = core::compete(g, d, {{0, 1}}, core::CompeteParams{}, 6);
  ASSERT_TRUE(r.success);
  // Deliveries far exceed n-1 tree deliveries of a single source flood:
  // concurrent cluster-local activity is the spontaneous-transmission
  // signature.
  EXPECT_GT(r.main_stats.wave_deliveries + r.background_stats.wave_deliveries,
            g.node_count());
}

}  // namespace
}  // namespace radiocast
