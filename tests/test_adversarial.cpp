// Adversarial / stress cases: topologies engineered to poke at known
// failure modes (bottlenecks, symmetric collisions, dense hubs, wrong
// diameter hints) across the whole algorithm stack.
#include <gtest/gtest.h>

#include "core/compete_batched.hpp"
#include "core/radiocast.hpp"

namespace radiocast {
namespace {

TEST(Adversarial, BarbellBottleneck) {
  // Two dense cliques joined by one long thin path: everything must funnel
  // through two bridge nodes; clusters straddle the bridge.
  const graph::Graph g = graph::barbell(40, 30);
  const auto d = graph::diameter_exact(g);
  const auto r = core::broadcast(g, d, 0, 7, core::CompeteParams{}, 1);
  EXPECT_TRUE(r.success);
  const auto le = core::elect_leader(g, d, core::LeaderElectionParams{}, 1);
  EXPECT_TRUE(le.success);
}

TEST(Adversarial, LollipopSourceInClique) {
  const graph::Graph g = graph::lollipop(60, 80);
  const auto d = graph::diameter_exact(g);
  // Source in the dense part, must escape through one cut vertex.
  const auto r = core::broadcast(g, d, 3, 7, core::CompeteParams{}, 2);
  EXPECT_TRUE(r.success);
  // And from the far tip back into the clique.
  const auto r2 = core::broadcast(g, d, g.node_count() - 1, 7,
                                  core::CompeteParams{}, 3);
  EXPECT_TRUE(r2.success);
}

TEST(Adversarial, StarHubCongestion) {
  // Extreme congestion: n-1 leaves all adjacent to one hub. Sources on
  // two leaves: their transmissions collide at the hub until Decay breaks
  // the tie.
  const graph::Graph g = graph::star(500);
  const auto r = core::compete(g, 2, {{1, 5}, {2, 9}},
                               core::CompeteParams{}, 4);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 9u);
}

TEST(Adversarial, PerfectSymmetryBroken) {
  // A torus is vertex-transitive: no structural asymmetry to exploit;
  // leader election must still break symmetry via randomness alone.
  const graph::Graph g = graph::torus(12, 12);
  const auto le = core::elect_leader(g, 12, core::LeaderElectionParams{}, 5);
  EXPECT_TRUE(le.success);
}

TEST(Adversarial, DiameterHintTooSmall) {
  // Nodes believing D is smaller than reality curtail too aggressively;
  // the round budget derives from the hint. The run may fail — what we
  // assert is NO crash and an honest failure report.
  const graph::Graph g = graph::path(300);
  const auto r = core::broadcast(g, /*lying hint=*/8, 0, 7,
                                 core::CompeteParams{}, 6);
  EXPECT_EQ(r.informed <= g.node_count(), true);
  if (!r.success) {
    EXPECT_LT(r.informed, g.node_count());
  }
}

TEST(Adversarial, DiameterHintTooLargeStillCorrect) {
  const graph::Graph g = graph::grid(8, 8);
  const auto r = core::broadcast(g, 14 * 8, 0, 7, core::CompeteParams{}, 7);
  EXPECT_TRUE(r.success);
}

TEST(Adversarial, TwoCompetingSourcesAtAntipodes) {
  const graph::Graph g = graph::cycle(200);
  const auto r = core::compete(g, 100, {{0, 10}, {100, 20}},
                               core::CompeteParams{}, 8);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.winner, 20u);
  for (auto b : r.best) EXPECT_EQ(b, 20u);
}

TEST(Adversarial, CaterpillarManyLeaves) {
  // Leaves outnumber the spine 6:1; every leaf is a risky dead-end.
  const graph::Graph g = graph::caterpillar(40, 6);
  const auto d = graph::diameter_exact(g);
  const auto r = core::broadcast(g, d, g.node_count() - 1, 7,
                                 core::CompeteParams{}, 9);
  EXPECT_TRUE(r.success);
}

TEST(Adversarial, DecayBaselineOnStarVsCliquePath) {
  // The CR shallow cycle is tuned for congestion n/D; the star violates
  // that assumption maximally — its periodic full-depth cycles must save
  // it (regression guard for the preset).
  const graph::Graph star = graph::star(1000);
  const std::uint64_t seed[] = {10};
  const auto r =
      core::broadcast_batched(star, 5, 7, core::cr_params(1000, 2), seed)[0];
  EXPECT_TRUE(r.success);
}

TEST(Adversarial, HypercubeAllAlgorithmsAgree) {
  const graph::Graph g = graph::hypercube(8);  // 256 nodes, D=8
  const auto cd = core::broadcast(g, 8, 0, 7, core::CompeteParams{}, 11);
  const std::uint64_t seed[] = {11};
  const auto bgi = core::broadcast_batched(
      g, 0, 7, core::bgi_params(g.node_count()), seed)[0];
  EXPECT_TRUE(cd.success);
  EXPECT_TRUE(bgi.success);
}

// Cross-validation fuzz: for random small graphs, the pipelined-schedule
// Compete and the fully-physical colored-schedule Compete must both
// deliver the same winner to everyone (the fidelity-note-2 equivalence).
class ModeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModeEquivalence, PipelinedAndColoredAgree) {
  util::Rng rng(GetParam());
  const graph::Graph g = graph::gnp(120, 0.04, rng);
  const auto d = std::max(2u, graph::diameter_double_sweep(g));
  std::vector<core::CompeteSource> sources{
      {static_cast<graph::NodeId>(rng.uniform(g.node_count())), 31},
      {static_cast<graph::NodeId>(rng.uniform(g.node_count())), 17}};
  core::CompeteParams pipelined;
  core::CompeteParams colored;
  colored.mode = schedule::ScheduleMode::kColored;
  const auto a = core::compete(g, d, sources, pipelined, GetParam());
  const auto b = core::compete(g, d, sources, colored, GetParam());
  EXPECT_TRUE(a.success);
  EXPECT_TRUE(b.success);
  EXPECT_EQ(a.winner, b.winner);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeEquivalence,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace radiocast
