// Direct unit tests of PropagationEngine — the windowed machinery shared
// by both Compete processes (Algorithms 1-4).
#include "core/propagation.hpp"

#include <gtest/gtest.h>

#include <array>

#include "cluster/exponential_shifts.hpp"
#include "core/compete.hpp"
#include "core/leader_election.hpp"
#include "graph/generators.hpp"
#include "schedule/bfs_schedule.hpp"
#include "sim/instances.hpp"

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

/// Single-region partition over a path rooted at node 0 (a degenerate
/// "coarse" layer), plus one fine schedule = the same tree. With one
/// cluster there are no foreign collisions: waves must be lossless.
struct PathFixture {
  graph::Graph g;
  Partition regions;
  Partition fine;
  std::unique_ptr<TreeSchedule> sched;

  explicit PathFixture(graph::NodeId n)
      : g(graph::path(n)),
        regions(cluster::trivial_partition(n)),
        fine(whole_path_cluster(n)),
        sched(std::make_unique<TreeSchedule>(g, fine,
                                             ScheduleMode::kPipelined)) {}

  PropagationEngine::Config config(std::uint32_t hops,
                                   bool background) const {
    PropagationEngine::Config cfg;
    cfg.graph = &g;
    cfg.regions = &regions;
    cfg.scheds = {sched.get()};
    cfg.choose = [hops](graph::NodeId, std::uint64_t) {
      return WindowChoice{0, hops};
    };
    cfg.icp_background = background;
    cfg.seed = 7;
    return cfg;
  }
};

TEST(PropagationEngine, OutwardWaveCarriesCenterValue) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(/*hops=*/5, /*background=*/false));
  std::vector<Payload> best(12, kNoPayload);
  best[0] = 42;
  util::Rng rng(1);
  // One pass of 5 rounds informs nodes 1..5.
  for (int i = 0; i < 5; ++i) eng.step(best, rng);
  for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(best[v], 42u) << v;
  EXPECT_EQ(best[6], kNoPayload);
}

TEST(PropagationEngine, InwardPassLiftsValueToCenter) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(5, false));
  std::vector<Payload> best(12, kNoPayload);
  best[0] = 10;
  best[4] = 77;  // within the 5-hop budget
  util::Rng rng(2);
  // Full window = 3 passes x 5 rounds.
  for (int i = 0; i < 15; ++i) eng.step(best, rng);
  EXPECT_EQ(best[0], 77u);
  // ... and redistributed by pass 3.
  for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(best[v], 77u) << v;
}

TEST(PropagationEngine, CurtailLimitsReach) {
  PathFixture fx(20);
  PropagationEngine eng(fx.config(4, false));
  std::vector<Payload> best(20, kNoPayload);
  best[10] = 99;  // deeper than the curtail: cannot reach the centre
  util::Rng rng(3);
  for (int i = 0; i < 12; ++i) eng.step(best, rng);  // one full window
  EXPECT_EQ(best[0], kNoPayload);
}

TEST(PropagationEngine, StepCountsRoundsForBothStreams) {
  PathFixture fx(8);
  PropagationEngine with_bg(fx.config(3, true));
  PropagationEngine without(fx.config(3, false));
  std::vector<Payload> a(8, kNoPayload), b(8, kNoPayload);
  util::Rng rng(4);
  EXPECT_EQ(with_bg.step(a, rng), 2u);
  EXPECT_EQ(without.step(b, rng), 1u);
  EXPECT_EQ(with_bg.stats().background_rounds, 1u);
  EXPECT_EQ(without.stats().background_rounds, 0u);
  EXPECT_EQ(without.pending_count(), 0u);
}

TEST(Propagation, BackgroundIgnoresCallerRng) {
  // Every background coin is a hash of the engine's seed, so the Rng a
  // caller passes to step cannot change a round: two engines with one
  // config, stepped with differently seeded Rngs, stay identical.
  PathFixture fx(24);
  PropagationEngine a(fx.config(2, true));
  PropagationEngine b(fx.config(2, true));
  std::vector<Payload> best_a(24, kNoPayload);
  best_a[0] = 5;
  best_a[17] = 9;
  std::vector<Payload> best_b = best_a;
  util::Rng rng_a(1), rng_b(2);
  auto counters = [](const PropagationStats& s) {
    return std::array<std::uint64_t, 7>{
        s.main_rounds,     s.background_rounds, s.windows_started,
        s.wave_deliveries, s.wave_blocked,      s.decay_deliveries,
        s.rescued};
  };
  for (int i = 0; i < 400; ++i) {
    a.step(best_a, rng_a);
    b.step(best_b, rng_b);
    ASSERT_EQ(best_a, best_b) << "step " << i;
    ASSERT_EQ(counters(a.stats()), counters(b.stats())) << "step " << i;
  }
  EXPECT_GT(a.stats().decay_deliveries, 0u);
  EXPECT_GT(a.stats().rescued, 0u);
}

TEST(PropagationEngine, WindowsAdvanceAndRestart) {
  PathFixture fx(8);
  PropagationEngine eng(fx.config(2, false));
  std::vector<Payload> best(8, kNoPayload);
  best[0] = 5;
  util::Rng rng(5);
  // 3 windows of 3 passes x 2 rounds.
  for (int i = 0; i < 18; ++i) eng.step(best, rng);
  EXPECT_EQ(eng.stats().windows_started, 1u + 3u);  // initial + 3 restarts
  // Without the background stream nothing queues for its eligible list.
  EXPECT_EQ(eng.pending_count(), 0u);
}

TEST(PropagationEngine, RepeatedWindowsEventuallyCoverTheCurtailChain) {
  // With hop budget 3, each window pushes the frontier ~3 hops (pass 3
  // re-broadcasts the centre value, and subsequent windows restart from
  // the SAME centre, so progress relies on the inward pass pulling values
  // toward the centre — on a single path cluster the value reaches the end
  // because every node within 3 hops of the centre holds it and the next
  // window's inward pass cannot regress). This asserts monotone coverage.
  PathFixture fx(10);
  PropagationEngine eng(fx.config(3, false));
  std::vector<Payload> best(10, kNoPayload);
  best[0] = 5;
  util::Rng rng(6);
  std::size_t covered_prev = 0;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 9; ++i) eng.step(best, rng);
    std::size_t covered = 0;
    for (auto b : best) covered += b != kNoPayload;
    EXPECT_GE(covered, covered_prev);
    EXPECT_EQ(eng.pending_count(), 0u);
    covered_prev = covered;
  }
  // Coverage is capped by the curtail: exactly nodes 0..3.
  EXPECT_EQ(covered_prev, 4u);
}

/// path(n) cut into two clusters: nodes [0, cut) rooted at 0 and
/// [cut, n) rooted at n - 1, each tree running along the path.
Partition split_path_clusters(graph::NodeId n, graph::NodeId cut) {
  Partition p = whole_path_cluster(n);
  for (graph::NodeId v = cut; v < n; ++v) {
    p.center[v] = n - 1;
    p.dist_to_center[v] = n - 1 - v;
    p.parent[v] = v == n - 1 ? v : v + 1;
  }
  return p;
}

TEST(PropagationEngine, ReachStaysInsideTheCurrentScheduleAcrossSwitches) {
  // The region alternates between one whole-path cluster and a split into
  // [0, 3) and [3, 12) on every window; every node knows a message. With a
  // 2-hop curtail, every node past the curtail is reached only through a
  // background rescue, and node 3 sits next to node 2, which the whole
  // cluster's wave reaches. After each step every reached node must sit in
  // a cluster of the schedule its region is running now: its centre is
  // reached, and it is the centre or has a reached neighbour in the same
  // cluster.
  constexpr graph::NodeId n = 12;
  const graph::Graph g = graph::path(n);
  const Partition regions = cluster::trivial_partition(n);
  const Partition whole = whole_path_cluster(n);
  const Partition split = split_path_clusters(n, 3);
  for (const ScheduleMode mode :
       {ScheduleMode::kPipelined, ScheduleMode::kColored}) {
    const TreeSchedule sched_whole(g, whole, mode);
    const TreeSchedule sched_split(g, split, mode);
    const std::vector<const TreeSchedule*> scheds{&sched_whole, &sched_split};
    std::uint32_t current = 0;
    PropagationEngine::Config cfg;
    cfg.graph = &g;
    cfg.regions = &regions;
    cfg.scheds = scheds;
    cfg.choose = [&current](graph::NodeId, std::uint64_t pos) {
      current = static_cast<std::uint32_t>(pos % 2);
      return WindowChoice{current, 2};
    };
    cfg.icp_background = true;
    cfg.seed = 11;
    PropagationEngine eng(cfg);
    std::vector<Payload> best(n);
    for (graph::NodeId v = 0; v < n; ++v) best[v] = v + 1;
    util::Rng rng(12);
    for (int step = 0; step < 600; ++step) {
      eng.step(best, rng);
      const TreeSchedule& cur = *scheds[current];
      for (graph::NodeId v = 0; v < n; ++v) {
        if (!eng.reached(v)) continue;
        SCOPED_TRACE(std::string(mode == ScheduleMode::kColored ? "colored"
                                                                : "pipelined") +
                     " step " + std::to_string(step) + " node " +
                     std::to_string(v));
        ASSERT_TRUE(cur.in_scope(v));
        const graph::NodeId c = cur.center(v);
        EXPECT_TRUE(eng.reached(c));
        bool attached = v == c;
        for (graph::NodeId w : g.neighbors(v)) {
          attached = attached || (eng.reached(w) && cur.center(w) == c);
        }
        EXPECT_TRUE(attached);
      }
    }
    EXPECT_GE(eng.stats().windows_started, 20u);
    EXPECT_GT(eng.stats().wave_deliveries, 0u);
    EXPECT_GT(eng.stats().rescued, 0u);
  }
}

TEST(PropagationEngine, InvalidConfigThrows) {
  PathFixture fx(4);
  PathFixture other(5);  // a different node count
  auto expect_rejected = [&](auto&& mutate) {
    PropagationEngine::Config cfg = fx.config(2, false);
    mutate(cfg);
    EXPECT_THROW(PropagationEngine{cfg}, std::invalid_argument);
  };
  expect_rejected([](auto& cfg) { cfg.scheds.clear(); });
  expect_rejected([](auto& cfg) { cfg.choose = nullptr; });
  // A null graph is rejected before anything dereferences it.
  expect_rejected([](auto& cfg) { cfg.graph = nullptr; });
  expect_rejected([](auto& cfg) { cfg.regions = nullptr; });
  expect_rejected([](auto& cfg) { cfg.scheds.push_back(nullptr); });
  expect_rejected([&](auto& cfg) { cfg.regions = &other.regions; });
  expect_rejected([&](auto& cfg) { cfg.scheds = {other.sched.get()}; });
  const TreeSchedule colored(fx.g, fx.fine, ScheduleMode::kColored);
  expect_rejected([&](auto& cfg) { cfg.scheds.push_back(&colored); });
}

TEST(PropagationEngine, ChoiceIndexOutOfRangeThrows) {
  PathFixture fx(4);
  PropagationEngine::Config cfg = fx.config(2, false);
  cfg.choose = [](graph::NodeId, std::uint64_t) {
    return WindowChoice{5, 2};  // no such schedule
  };
  PropagationEngine eng(cfg);
  std::vector<Payload> best(4, kNoPayload);
  util::Rng rng(7);
  EXPECT_THROW(eng.step(best, rng), std::out_of_range);
}

// Pin of the pipelined blocking pass, recorded before that pass scanned
// cached foreign-neighbour lists instead of whole rows: Compete (sources
// {0: 3, n/2: 11}) and leader election with default parameters on gnp
// n=512 deg 16 (graph seed 21), rgg n=400 r=0.09 (graph seed 22) and
// cliquepath n=256 d=64, three seeds each. Every case but gnp leader
// election at seed 3 (done within its first window) blocks hops, switches
// schedules across windows and has nodes that transmit under one schedule
// in several multi-centre rounds, so a dropped, extra or stale foreign
// neighbour moves a counter or the digest of the final knowledge.
TEST(PropagationEngine, BlockingGolden) {
  struct Golden {
    int family;
    bool leader;  // elect_leader instead of compete
    std::uint64_t seed;
    std::uint64_t best_digest;  // FNV-1a over the final knowledge
    // wave_blocked, wave_deliveries, windows_started, rescued
    std::array<std::uint64_t, 4> main_stats;
    std::array<std::uint64_t, 4> background_stats;
  };
  static const Golden kGolden[] = {
      {0, false, 1, 0x46661ec53f168325ULL, {371, 925, 6, 412}, {792, 1185, 3, 136}},
      {0, false, 2, 0x46661ec53f168325ULL, {561, 735, 2, 15}, {430, 1517, 3, 288}},
      {0, false, 3, 0x46661ec53f168325ULL, {510, 663, 6, 240}, {482, 1462, 3, 151}},
      {0, true, 1, 0x7a60554eaf69df25ULL, {58, 745, 6, 0}, {13, 1491, 2, 0}},
      {0, true, 2, 0xbafcd70dbdde8325ULL, {245, 627, 6, 0}, {187, 1139, 2, 0}},
      {0, true, 3, 0x895757245637cf25ULL, {0, 0, 1, 0}, {0, 538, 1, 0}},
      {1, false, 1, 0xb60a41b308840e25ULL, {237, 3243, 14, 34}, {504, 1842, 5, 41}},
      {1, false, 2, 0xb60a41b308840e25ULL, {462, 2931, 28, 82}, {312, 2357, 5, 52}},
      {1, false, 3, 0xb60a41b308840e25ULL, {630, 3282, 36, 114}, {410, 2760, 6, 88}},
      {1, true, 1, 0x7d10f54755050685ULL, {1092, 3689, 144, 216}, {590, 2879, 6, 140}},
      {1, true, 2, 0x4296707bab7b5c25ULL, {635, 2620, 60, 94}, {255, 2105, 4, 72}},
      {1, true, 3, 0x6e8506f7c06e65c5ULL, {151, 2483, 10, 37}, {386, 1006, 3, 74}},
      {2, false, 1, 0x08f3a3507e9c5325ULL, {281, 4310, 26, 37}, {480, 1811, 7, 117}},
      {2, false, 2, 0x08f3a3507e9c5325ULL, {529, 2322, 22, 54}, {464, 1093, 6, 27}},
      {2, false, 3, 0x08f3a3507e9c5325ULL, {547, 2657, 44, 72}, {292, 1655, 6, 29}},
      {2, true, 1, 0x20b59208e41f2f25ULL, {1474, 6581, 90, 155}, {1563, 2417, 9, 242}},
      {2, true, 2, 0x2b02ec90701cbd25ULL, {739, 2477, 78, 124}, {571, 1501, 7, 114}},
      {2, true, 3, 0xabfccdc967d9eb25ULL, {1519, 5198, 68, 178}, {728, 2846, 9, 198}}
  };
  const sim::Instance instances[] = {
      sim::make_gnp_instance(512, 16.0 / 511, 21, 1),
      sim::make_rgg_instance(400, 0.09, 22, 1),
      sim::make_cliquepath_instance(256, 64)};
  auto counters = [](const PropagationStats& s) {
    return std::array<std::uint64_t, 4>{s.wave_blocked, s.wave_deliveries,
                                        s.windows_started, s.rescued};
  };
  auto digest = [](const std::vector<Payload>& best) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Payload x : best) {
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  };
  std::uint64_t blocked = 0;
  for (const Golden& pin : kGolden) {
    const sim::Instance& inst = instances[pin.family];
    const graph::NodeId n = inst.g.node_count();
    SCOPED_TRACE(inst.name + (pin.leader ? " leader" : " compete") +
                 " seed " + std::to_string(pin.seed));
    std::vector<Payload> best;
    PropagationStats main_stats, background_stats;
    if (pin.leader) {
      auto r = elect_leader(inst.g, inst.diameter, LeaderElectionParams{},
                            pin.seed);
      EXPECT_TRUE(r.success);
      best = std::move(r.best);
      main_stats = r.main_stats;
      background_stats = r.background_stats;
    } else {
      auto r = compete(inst.g, inst.diameter, {{0, 3}, {n / 2, 11}},
                       CompeteParams{}, pin.seed);
      EXPECT_TRUE(r.success);
      best = std::move(r.best);
      main_stats = r.main_stats;
      background_stats = r.background_stats;
    }
    EXPECT_EQ(digest(best), pin.best_digest);
    EXPECT_EQ(counters(main_stats), pin.main_stats);
    EXPECT_EQ(counters(background_stats), pin.background_stats);
    blocked += main_stats.wave_blocked + background_stats.wave_blocked;
  }
  EXPECT_GT(blocked, 0u);
}

}  // namespace
}  // namespace radiocast::core
