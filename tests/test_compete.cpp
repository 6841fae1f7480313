// End-to-end tests of Compete(S) — Theorem 4.1's guarantee (everyone
// learns the highest source message) across graph families, source-set
// sizes, seeds, and ablation configurations.
#include "core/compete.hpp"

#include <gtest/gtest.h>

#include <array>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/instances.hpp"

namespace radiocast::core {
namespace {

CompeteParams fast_params() {
  CompeteParams p;
  p.check_interval = 8;
  return p;
}

TEST(Compete, EmptySourceSetIsVacuousSuccess) {
  const graph::Graph g = graph::path(5);
  const auto r = compete(g, 4, {}, fast_params(), 1);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Compete, SingleNodeGraph) {
  const graph::Graph g = graph::path(1);
  const auto r = compete(g, 1, {{0, 42}}, fast_params(), 1);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 42u);
  EXPECT_EQ(r.informed, 1u);
}

TEST(Compete, TwoNodes) {
  const graph::Graph g = graph::path(2);
  const auto r = compete(g, 1, {{0, 7}}, fast_params(), 2);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.best[1], 7u);
}

TEST(Compete, HighestOfManySourcesWins) {
  const graph::Graph g = graph::grid(12, 12);
  std::vector<CompeteSource> sources{{0, 10}, {77, 99}, {143, 50}};
  const auto r = compete(g, 22, sources, fast_params(), 3);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.winner, 99u);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(r.best[v], 99u) << v;
  }
}

TEST(Compete, DuplicateSourceValuesAllowed) {
  const graph::Graph g = graph::cycle(20);
  std::vector<CompeteSource> sources{{0, 5}, {10, 5}};
  const auto r = compete(g, 10, sources, fast_params(), 4);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 5u);
}

TEST(Compete, SourceOutOfRangeThrows) {
  const graph::Graph g = graph::path(3);
  EXPECT_THROW(compete(g, 2, {{5, 1}}, fast_params(), 1),
               std::out_of_range);
}

// kNoPayload is the "nothing learnt" sentinel: a source carrying it would
// read as already-known everywhere and "succeed" after 0 rounds.
TEST(Compete, SentinelSourceValueThrows) {
  const graph::Graph g = graph::path(50);
  EXPECT_THROW(compete(g, 49, {{0, radio::kNoPayload}}, fast_params(), 1),
               std::invalid_argument);
}

TEST(Compete, AllNodesAreSources) {
  const graph::Graph g = graph::grid(8, 8);
  std::vector<CompeteSource> sources;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    sources.push_back({v, static_cast<radio::Payload>(v)});
  }
  const auto r = compete(g, 14, sources, fast_params(), 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 63u);
}

TEST(Compete, DeterministicGivenSeed) {
  const graph::Graph g = graph::path_of_cliques(10, 6);
  const auto a = compete(g, 28, {{3, 9}}, fast_params(), 77);
  const auto b = compete(g, 28, {{3, 9}}, fast_params(), 77);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.best, b.best);
}

TEST(Compete, DifferentSeedsBothSucceed) {
  const graph::Graph g = graph::path_of_cliques(10, 6);
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    EXPECT_TRUE(compete(g, 28, {{0, 1}}, fast_params(), seed).success)
        << seed;
  }
}

TEST(Compete, ChargedPrecomputeIsPositive) {
  const graph::Graph g = graph::grid(10, 10);
  const auto r = compete(g, 18, {{0, 1}}, fast_params(), 6);
  EXPECT_GT(r.precompute_rounds_charged, 0u);
}

TEST(Compete, StatsReflectActivity) {
  const graph::Graph g = graph::path_of_cliques(15, 6);
  const auto r = compete(g, 44, {{0, 1}}, fast_params(), 7);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.main_stats.windows_started, 0u);
  EXPECT_GT(r.main_stats.wave_deliveries, 0u);
  EXPECT_GT(r.main_stats.background_rounds, 0u);
  EXPECT_GT(r.background_stats.windows_started, 0u);
}

// Exact outcomes over a small grid. A change to how the engine does its
// per-round bookkeeping must reproduce every round, delivery and coin flip;
// only a deliberate change of behaviour re-records this table (last: the
// background's node coins became per-(seed, round, node) hashes instead of
// stream draws). Families:
// gnp n=256 (average degree 8, graph seed 17), cliquepath n=128 d=32,
// grid 12x12; sources {0: 3, n/2: 11}.
TEST(Compete, OutcomesPinnedAcrossSeeds) {
  struct Pinned {
    int family;
    bool colored;
    std::uint64_t seed;
    bool success;
    std::uint64_t rounds;
    std::uint32_t informed;
    // main_rounds, background_rounds, windows_started, wave_deliveries,
    // wave_blocked, decay_deliveries, rescued
    std::array<std::uint64_t, 7> main_stats;
    std::array<std::uint64_t, 7> background_stats;
  };
  static const Pinned kPinned[] = {
      {0, false, 1, true, 352, 256, {88, 88, 6, 637, 281, 313, 65}, {88, 88, 3, 1326, 148, 114, 0}},
      {0, false, 2, true, 128, 256, {32, 32, 1, 241, 0, 41, 19}, {32, 32, 2, 330, 21, 0, 0}},
      {0, false, 3, true, 224, 256, {56, 56, 10, 163, 89, 0, 0}, {56, 56, 2, 573, 76, 0, 0}},
      {0, false, 4, true, 288, 256, {72, 72, 8, 409, 159, 329, 62}, {72, 72, 3, 565, 150, 299, 17}},
      {0, true, 1, true, 704, 256, {176, 176, 2, 36, 0, 0, 0}, {176, 176, 1, 272, 0, 0, 0}},
      {0, true, 2, true, 704, 256, {176, 176, 1, 66, 0, 0, 0}, {176, 176, 1, 271, 0, 0, 0}},
      {0, true, 3, true, 736, 256, {184, 184, 5, 214, 0, 25, 0}, {184, 184, 2, 419, 0, 359, 7}},
      {0, true, 4, true, 640, 256, {160, 160, 4, 32, 0, 0, 0}, {160, 160, 2, 369, 0, 652, 10}},
      {1, false, 1, true, 1088, 128, {272, 272, 26, 2475, 246, 836, 56}, {272, 272, 10, 1570, 343, 821, 93}},
      {1, false, 2, true, 192, 128, {48, 48, 6, 393, 8, 0, 0}, {48, 48, 2, 156, 42, 13, 0}},
      {1, false, 3, true, 288, 128, {72, 72, 12, 642, 0, 63, 0}, {72, 72, 3, 285, 122, 176, 43}},
      {1, false, 4, true, 256, 128, {64, 64, 20, 274, 141, 188, 50}, {64, 64, 3, 272, 24, 168, 18}},
      {1, true, 1, true, 960, 128, {240, 240, 8, 621, 0, 509, 25}, {240, 240, 3, 311, 0, 582, 61}},
      {1, true, 2, true, 544, 128, {136, 136, 6, 451, 0, 448, 33}, {136, 136, 2, 187, 0, 309, 18}},
      {1, true, 3, true, 608, 128, {152, 152, 9, 294, 0, 411, 48}, {152, 152, 2, 197, 0, 192, 18}},
      {1, true, 4, true, 704, 128, {176, 176, 15, 236, 0, 411, 51}, {176, 176, 2, 154, 0, 387, 29}},
      {2, false, 1, true, 256, 144, {64, 64, 4, 511, 60, 22, 2}, {64, 64, 3, 433, 35, 17, 3}},
      {2, false, 2, true, 256, 144, {64, 64, 8, 456, 48, 10, 0}, {64, 64, 3, 380, 37, 42, 8}},
      {2, false, 3, true, 352, 144, {88, 88, 25, 601, 43, 122, 12}, {88, 88, 3, 301, 94, 229, 14}},
      {2, false, 4, true, 352, 144, {88, 88, 35, 518, 99, 226, 47}, {88, 88, 3, 376, 77, 216, 15}},
      {2, true, 1, true, 736, 144, {184, 184, 2, 255, 0, 168, 12}, {184, 184, 2, 231, 0, 194, 0}},
      {2, true, 2, true, 512, 144, {128, 128, 4, 230, 0, 52, 4}, {128, 128, 2, 262, 0, 4, 0}},
      {2, true, 3, true, 864, 144, {216, 216, 15, 378, 0, 334, 9}, {216, 216, 2, 137, 0, 290, 9}},
      {2, true, 4, true, 992, 144, {248, 248, 21, 323, 0, 423, 18}, {248, 248, 2, 198, 0, 393, 9}}
  };
  const sim::Instance instances[] = {
      sim::make_gnp_instance(256, 8.0 / 255, 17, 1),
      sim::make_cliquepath_instance(128, 32), sim::make_grid_instance(12, 12)};
  auto counters = [](const PropagationStats& s) {
    return std::array<std::uint64_t, 7>{
        s.main_rounds,     s.background_rounds, s.windows_started,
        s.wave_deliveries, s.wave_blocked,      s.decay_deliveries,
        s.rescued};
  };
  for (const Pinned& pin : kPinned) {
    const sim::Instance& inst = instances[pin.family];
    const graph::NodeId n = inst.g.node_count();
    CompeteParams p = fast_params();
    p.mode = pin.colored ? schedule::ScheduleMode::kColored
                         : schedule::ScheduleMode::kPipelined;
    const auto r =
        compete(inst.g, inst.diameter, {{0, 3}, {n / 2, 11}}, p, pin.seed);
    SCOPED_TRACE(inst.name + (pin.colored ? " colored" : " pipelined") +
                 " seed " + std::to_string(pin.seed));
    EXPECT_EQ(r.success, pin.success);
    EXPECT_EQ(r.rounds, pin.rounds);
    EXPECT_EQ(r.informed, pin.informed);
    EXPECT_EQ(counters(r.main_stats), pin.main_stats);
    EXPECT_EQ(counters(r.background_stats), pin.background_stats);
  }
}

// Ablations (E9): every configuration must still complete — the paper's
// background processes affect speed, not eventual correctness, because the
// main waves alone also make progress (just not provably fast progress).
TEST(Compete, AblationNoBackgroundProcessStillCompletes) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p = fast_params();
  p.enable_background = false;
  const auto r = compete(g, 18, {{0, 8}}, p, 8);
  EXPECT_TRUE(r.success);
}

TEST(Compete, AblationNoIcpBackgroundStillCompletesOnGrid) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p = fast_params();
  p.enable_icp_background = false;
  const auto r = compete(g, 18, {{0, 8}}, p, 9);
  EXPECT_TRUE(r.success);
}

TEST(Compete, AblationFixedBetaStillCompletes) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p = fast_params();
  p.randomize_beta = false;
  const auto r = compete(g, 18, {{0, 8}}, p, 10);
  EXPECT_TRUE(r.success);
}

TEST(Compete, HwCurtailStillCompletes) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p = fast_params();
  p.hw_curtail = true;
  const auto r = compete(g, 18, {{0, 8}}, p, 11);
  EXPECT_TRUE(r.success);
}

TEST(Compete, ColoredScheduleModeCompletes) {
  const graph::Graph g = graph::grid(8, 8);
  CompeteParams p = fast_params();
  p.mode = schedule::ScheduleMode::kColored;
  const auto r = compete(g, 14, {{0, 8}}, p, 12);
  EXPECT_TRUE(r.success);
}

TEST(Compete, RoundBudgetRespected) {
  const graph::Graph g = graph::path(200);
  CompeteParams p = fast_params();
  p.round_budget_factor = 0.0001;  // absurdly small: must stop early
  const auto r = compete(g, 199, {{0, 1}}, p, 13);
  EXPECT_FALSE(r.success);
  EXPECT_LT(r.rounds, 1000u);
}

// Families x seeds sweep: Theorem 4.1 correctness everywhere.
class CompeteFamilies
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CompeteFamilies, AllInformed) {
  const auto [fam, seed] = GetParam();
  util::Rng rng(seed * 1000 + fam);
  graph::Graph g;
  switch (fam) {
    case 0: g = graph::path(150); break;
    case 1: g = graph::cycle(150); break;
    case 2: g = graph::grid(12, 13); break;
    case 3: g = graph::path_of_cliques(20, 8); break;
    case 4: g = graph::random_geometric(250, 0.09, rng); break;
    case 5: g = graph::gnp(250, 0.025, rng); break;
    case 6: g = graph::random_recursive_tree(250, rng); break;
    case 7: g = graph::star(100); break;
    case 8: g = graph::caterpillar(30, 4); break;
    default: g = graph::hypercube(7); break;
  }
  const auto d = graph::diameter_double_sweep(g);
  std::vector<CompeteSource> sources{
      {0, 3}, {static_cast<graph::NodeId>(g.node_count() / 2), 11}};
  const auto r = compete(g, std::max(2u, d), sources, fast_params(), seed);
  EXPECT_TRUE(r.success) << "family " << fam << " seed " << seed << ": "
                         << r.informed << "/" << g.node_count();
  EXPECT_EQ(r.winner, 11u);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesSeeds, CompeteFamilies,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace radiocast::core
