#include "baselines/hw_broadcast.hpp"
#include "baselines/le_binary_search.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/compete_batched.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

// The BGI and CR/KP Decay yardsticks run on core::compete_batched; these
// tests drive them one seed at a time, as E1/E2 and binary-search LE do.
namespace radiocast::baselines {
namespace {

using core::bgi_params;
using core::broadcast_batched;
using core::compete_batched;
using core::cr_params;

TEST(BgiBroadcast, InformsPath) {
  const graph::Graph g = graph::path(100);
  const std::uint64_t seed[] = {1};
  const auto r = broadcast_batched(g, 0, 5, bgi_params(g.node_count()), seed)[0];
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.informed, 100u);
}

TEST(BgiBroadcast, InformsDenseGraph) {
  util::Rng rng(2);
  const graph::Graph g = graph::gnp(300, 0.05, rng);
  const std::uint64_t seed[] = {2};
  const auto r = broadcast_batched(g, 0, 5, bgi_params(g.node_count()), seed)[0];
  EXPECT_TRUE(r.success);
}

TEST(BgiBroadcast, RoundsScaleLikeDLogN) {
  // On a path, BGI costs ~ c * D * log n; check the per-hop rate is within
  // a small factor of log2 n.
  const graph::Graph g = graph::path(300);
  const std::uint64_t seed[] = {3};
  const auto r = broadcast_batched(g, 0, 1, bgi_params(g.node_count()), seed)[0];
  ASSERT_TRUE(r.success);
  const double per_hop = static_cast<double>(r.rounds) / 299.0;
  const double logn = std::log2(300.0);
  EXPECT_GT(per_hop, 0.5 * logn);
  EXPECT_LT(per_hop, 4.0 * logn);
}

TEST(CrBroadcast, FasterThanBgiOnLongCliquePath) {
  // n/D small => CR's shallow cycles beat BGI's full-depth cycles.
  const graph::Graph g = graph::path_of_cliques(60, 4);
  const auto d = graph::diameter_double_sweep(g);
  const std::uint64_t seed[] = {4};
  const auto bgi =
      broadcast_batched(g, 0, 9, bgi_params(g.node_count()), seed)[0];
  const auto cr =
      broadcast_batched(g, 0, 9, cr_params(g.node_count(), d), seed)[0];
  ASSERT_TRUE(bgi.success);
  ASSERT_TRUE(cr.success);
  EXPECT_LT(cr.rounds, bgi.rounds);
}

TEST(CrBroadcast, HandlesHighCongestionViaFullCycles) {
  // Star-heavy topology: per-node congestion n-1 >> n/D; the periodic
  // full-depth cycle must still get the message out of the hub.
  const graph::Graph g = graph::star(400);
  const std::uint64_t seed[] = {5};
  const auto r = broadcast_batched(g, 1, 9, cr_params(g.node_count(), 2), seed)[0];
  EXPECT_TRUE(r.success);
}

TEST(CrBroadcast, FullCyclesClearABottleneckShallowCyclesCannot) {
  // Hub 0 -> 256 leaves -> one sink -> a 300-node path: n = 558, D = 302,
  // so CR's shallow cycle has depth 3 (full depth 10). All 256 leaves
  // compete for the sink, which a 2^-3 density essentially never resolves;
  // only the periodic full-depth cycle reaches 2^-8.
  constexpr graph::NodeId kLeaves = 256, kPath = 300;
  const graph::NodeId sink = kLeaves + 1;
  graph::GraphBuilder b(sink + 1 + kPath);
  for (graph::NodeId leaf = 1; leaf <= kLeaves; ++leaf) {
    b.add_edge(0, leaf);
    b.add_edge(leaf, sink);
  }
  for (graph::NodeId v = sink; v < sink + kPath; ++v) b.add_edge(v, v + 1);
  const graph::Graph g = b.build();
  ASSERT_EQ(g.node_count(), 558u);
  const auto d = graph::diameter_exact(g);
  ASSERT_EQ(d, 302u);
  core::BatchedCompeteParams cr = cr_params(g.node_count(), d);
  ASSERT_EQ(cr.cycle_depth, 3u);
  cr.max_rounds = 20'000;
  std::vector<std::uint64_t> seeds(20);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 100 + i;

  for (const auto& r : broadcast_batched(g, 0, 9, cr, seeds)) {
    EXPECT_TRUE(r.success);
  }
  cr.full_cycle_every = 0;
  for (const auto& r : broadcast_batched(g, 0, 9, cr, seeds)) {
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.rounds, 20'000u);
  }
}

TEST(DecayBroadcast, MultiSourceHighestWins) {
  const graph::Graph g = graph::grid(10, 10);
  const std::uint64_t seed[] = {6};
  const auto r = compete_batched(g, {{0, 3}, {55, 12}, {99, 7}},
                                 bgi_params(g.node_count()), seed)[0];
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.winner, 12u);
  for (auto b : r.best) EXPECT_EQ(b, 12u);
}

TEST(DecayBroadcast, EmptySourcesVacuous) {
  const graph::Graph g = graph::path(5);
  const std::uint64_t seed[] = {7};
  const auto r = compete_batched(g, {}, bgi_params(5), seed)[0];
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(DecayBroadcast, SourceOutOfRangeThrows) {
  const graph::Graph g = graph::path(5);
  const std::uint64_t seed[] = {8};
  EXPECT_THROW(compete_batched(g, {{9, 1}}, bgi_params(5), seed),
               std::out_of_range);
}

TEST(DecayBroadcast, SentinelSourceValueThrows) {
  const graph::Graph g = graph::path(50);
  const std::uint64_t seed[] = {8};
  EXPECT_THROW(compete_batched(g, {{0, radio::kNoPayload}}, bgi_params(50),
                               seed),
               std::invalid_argument);
}

TEST(DecayBroadcast, MaxRoundsRespected) {
  const graph::Graph g = graph::path(500);
  core::BatchedCompeteParams p = bgi_params(500);
  p.max_rounds = 50;  // far too few for 500 hops
  const std::uint64_t seed[] = {9};
  const auto r = broadcast_batched(g, 0, 1, p, seed)[0];
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.rounds, 50u);
  EXPECT_LT(r.informed, 500u);
}

TEST(HwBroadcast, CompletesAndUsesInflatedCurtail) {
  const graph::Graph g = graph::path_of_cliques(15, 6);
  const auto d = graph::diameter_double_sweep(g);
  const auto r = hw_broadcast(g, d, 0, 5, 10);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(hw_params().hw_curtail);
}

TEST(BinarySearchLe, ElectsUniqueLeaderOnGrid) {
  const graph::Graph g = graph::grid(10, 10);
  const auto r = binary_search_leader_election(g, 18,
                                               BinarySearchLeParams{}, 11);
  ASSERT_TRUE(r.success);
  EXPECT_LT(r.leader, g.node_count());
  EXPECT_GT(r.candidate_count, 0u);
  EXPECT_GT(r.phases, 0u);
}

TEST(BinarySearchLe, RoundsAreTbcTimesBits) {
  const graph::Graph g = graph::grid(8, 8);
  BinarySearchLeParams p;
  p.id_bits = 10;
  const auto r = binary_search_leader_election(g, 14, p, 12);
  ASSERT_TRUE(r.success);
  // phases * budget + final announce = (bits + 1) * budget.
  EXPECT_EQ(r.phases, 10u);
  EXPECT_EQ(r.rounds % (r.phases + 1), 0u);
}

TEST(BinarySearchLe, DeterministicGivenSeed) {
  const graph::Graph g = graph::cycle(40);
  const auto a =
      binary_search_leader_election(g, 20, BinarySearchLeParams{}, 13);
  const auto b =
      binary_search_leader_election(g, 20, BinarySearchLeParams{}, 13);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(BinarySearchLe, WorksAcrossFamilies) {
  util::Rng rng(14);
  for (int fam = 0; fam < 3; ++fam) {
    graph::Graph g;
    switch (fam) {
      case 0: g = graph::path(60); break;
      case 1: g = graph::random_geometric(150, 0.12, rng); break;
      default: g = graph::balanced_binary_tree(63); break;
    }
    const auto d = std::max(2u, graph::diameter_double_sweep(g));
    const auto r =
        binary_search_leader_election(g, d, BinarySearchLeParams{}, fam);
    EXPECT_TRUE(r.success) << "family " << fam;
  }
}

}  // namespace
}  // namespace radiocast::baselines
