// Lane-parallel protocol execution differentials: a protocol written
// against radio::LaneExecutor must produce, lane by lane, byte-identical
// results whether it runs one seed at a time over a scalar Network or N
// seeds at once over a BatchNetwork — success, rounds, informed counts,
// counters, and the whole best[] knowledge planes.
#include "core/compete_batched.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/batch_network.hpp"
#include "radio/network.hpp"
#include "schedule/decay.hpp"
#include "util/rng.hpp"

namespace radiocast {
namespace {

using core::BatchedCompeteParams;
using core::CompeteLaneResult;
using core::CompeteSource;
using graph::Graph;
using graph::NodeId;

std::vector<std::uint64_t> make_seeds(int count, std::uint64_t base) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    seeds[static_cast<std::size_t>(i)] =
        util::mix_seed(base, static_cast<std::uint64_t>(i));
  }
  return seeds;
}

/// The scalar reference: one independent Network-backed run per seed, all
/// through the very same lane-generic protocol code (lanes() == 1).
std::vector<CompeteLaneResult> scalar_reference(
    const Graph& g, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<CompeteLaneResult> out;
  for (const std::uint64_t seed : seeds) {
    radio::Network net(g);  // scalar medium, 1 lane
    const std::uint64_t one[] = {seed};
    out.push_back(core::compete_batched(net, sources, params, one).front());
  }
  return out;
}

void expect_lane_equal(const CompeteLaneResult& got,
                       const CompeteLaneResult& want, int lane) {
  EXPECT_EQ(got.success, want.success) << "lane " << lane;
  EXPECT_EQ(got.rounds, want.rounds) << "lane " << lane;
  EXPECT_EQ(got.informed, want.informed) << "lane " << lane;
  EXPECT_EQ(got.winner, want.winner) << "lane " << lane;
  EXPECT_EQ(got.transmissions, want.transmissions) << "lane " << lane;
  EXPECT_EQ(got.deliveries, want.deliveries) << "lane " << lane;
  EXPECT_EQ(got.best, want.best) << "lane " << lane;
}

/// Sets RADIOCAST_SHARD_THREADS for its lifetime when `value` is given,
/// so every bitslice medium built meanwhile gets that many pool workers.
struct ShardThreadsEnv {
  explicit ShardThreadsEnv(const char* value) : set(value != nullptr) {
    if (set) setenv("RADIOCAST_SHARD_THREADS", value, 1);
  }
  ~ShardThreadsEnv() {
    if (set) unsetenv("RADIOCAST_SHARD_THREADS");
  }
  bool set;
};

void check_compete_differential(const Graph& g,
                                const std::vector<CompeteSource>& sources,
                                const BatchedCompeteParams& params, int lanes,
                                std::uint64_t base_seed) {
  const auto seeds = make_seeds(lanes, base_seed);
  const auto want = scalar_reference(g, sources, params, seeds);
  // Bitslice serial, bitslice with a 4-worker gather pool (the env knob
  // every medium built inside compete_batched reads), and scalar.
  constexpr std::pair<radio::MediumKind, const char*> kBackends[] = {
      {radio::MediumKind::kBitslice, nullptr},
      {radio::MediumKind::kBitslice, "4"},
      {radio::MediumKind::kScalar, nullptr}};
  for (const auto& [medium, shard_threads] : kBackends) {
    const ShardThreadsEnv env(shard_threads);
    // The sender-recovery strategy must be invisible in results: every
    // strategy on every backend reproduces the scalar per-seed reference
    // byte for byte (success, rounds, counters, whole best[] planes).
    for (const radio::RecoveryStrategy recovery :
         {radio::RecoveryStrategy::kAuto, radio::RecoveryStrategy::kRowScan}) {
      const auto got =
          core::compete_batched(g, sources, params, seeds, medium, recovery);
      ASSERT_EQ(got.size(), want.size())
          << to_string(medium) << "/" << to_string(recovery)
          << (shard_threads != nullptr ? "/pooled" : "");
      for (int l = 0; l < lanes; ++l) {
        expect_lane_equal(got[static_cast<std::size_t>(l)],
                          want[static_cast<std::size_t>(l)], l);
      }
    }
  }
}

TEST(ProtocolLanes, BroadcastBatchedMatchesScalarRunsLaneByLane) {
  util::Rng grng(41);
  const Graph g = graph::gnp(160, 0.06, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  check_compete_differential(g, {{0, 77}}, params, 64, 1001);
  check_compete_differential(g, {{3, 5}}, params, 9, 1002);
}

TEST(ProtocolLanes, CompeteBatchedMultiSourceMatchesScalarRuns) {
  util::Rng grng(42);
  const Graph g = graph::gnp(120, 0.07, grng);
  BatchedCompeteParams params;
  params.max_rounds = 3000;
  // CR's cadence: shallow depth-3 cycles, every second one full depth.
  params.cycle_depth = 3;
  params.full_cycle_every = 2;
  const std::vector<CompeteSource> sources{{2, 900}, {40, 901}, {77, 950}};
  check_compete_differential(g, sources, params, 23, 2001);
}

TEST(ProtocolLanes, TightBudgetLanesAgreeOnFailureToo) {
  // A budget far below completion: lanes must agree on rounds == cap,
  // partial best planes, and success == false, exactly as scalar runs do.
  util::Rng grng(43);
  const Graph g = graph::path_of_cliques(12, 6);
  BatchedCompeteParams params;
  params.max_rounds = 10;
  check_compete_differential(g, {{0, 9}}, params, 17, 3001);
}

TEST(ProtocolLanes, RoundsAreExactCompletion) {
  // A lane stops in the round its last node learns max(S): the same seed
  // with one round less of budget must fail.
  util::Rng grng(47);
  const Graph g = graph::gnp(200, 0.05, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const std::vector<CompeteSource> sources{{0, 31}, {7, 64}};
  const auto seeds = make_seeds(12, 7001);
  const auto lanes = core::compete_batched(g, sources, params, seeds);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    ASSERT_TRUE(lanes[l].success) << "lane " << l;
    ASSERT_GT(lanes[l].rounds, 0u) << "lane " << l;
    BatchedCompeteParams short_budget = params;
    short_budget.max_rounds = lanes[l].rounds - 1;
    radio::Network net(g);
    const std::uint64_t one[] = {seeds[l]};
    const auto cut =
        core::compete_batched(net, sources, short_budget, one).front();
    EXPECT_FALSE(cut.success) << "lane " << l;
    EXPECT_EQ(cut.rounds, lanes[l].rounds - 1) << "lane " << l;
    EXPECT_LT(cut.informed, g.node_count()) << "lane " << l;
  }
}

// A BatchNetwork wider than the seed count: compete_batched accepts
// seeds.size() in [1, net.lanes()], and 3 seeds on a 64-lane network must
// run exactly like a 3-lane network — results and per-lane counters,
// lane by lane, on both media.
TEST(ProtocolLanes, FewerSeedsThanNetworkLanes) {
  util::Rng grng(48);
  const Graph g = graph::gnp(120, 0.07, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const std::vector<CompeteSource> sources{{1, 70}, {30, 71}};
  const auto seeds = make_seeds(3, 8001);
  for (const radio::MediumKind medium :
       {radio::MediumKind::kScalar, radio::MediumKind::kBitslice}) {
    radio::BatchNetwork narrow(g, 3, radio::CollisionModel::kNoDetection,
                               medium);
    radio::BatchNetwork wide(g, radio::kMaxLanes,
                             radio::CollisionModel::kNoDetection, medium);
    const auto want = core::compete_batched(narrow, sources, params, seeds);
    const auto got = core::compete_batched(wide, sources, params, seeds);
    ASSERT_EQ(got.size(), 3u) << to_string(medium);
    for (int l = 0; l < 3; ++l) {
      expect_lane_equal(got[static_cast<std::size_t>(l)],
                        want[static_cast<std::size_t>(l)], l);
      EXPECT_EQ(wide.transmissions_by_lane()[l],
                narrow.transmissions_by_lane()[l])
          << to_string(medium) << " lane " << l;
      EXPECT_EQ(wide.deliveries_by_lane()[l], narrow.deliveries_by_lane()[l])
          << to_string(medium) << " lane " << l;
    }
    EXPECT_EQ(wide.total_transmissions(), narrow.total_transmissions());
    EXPECT_EQ(wide.rounds_elapsed(), narrow.rounds_elapsed());
  }
}

// Which fold the bitslice medium takes under kAuto. Single-valued runs (a
// broadcast, a binary-search LE phase whose sources all carry 1) relay one
// shared plane, so every round const-folds with no sender recovery;
// multi-valued runs relay per-lane knowledge planes and recover senders
// on every round.
TEST(ProtocolLanes, SingleValueRelaysConstFold) {
  util::Rng grng(49);
  const Graph g = graph::gnp(150, 0.06, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const auto seeds = make_seeds(64, 9001);
  auto timers_of = [&](const std::vector<CompeteSource>& sources) {
    radio::BatchNetwork net(g);
    const auto lanes = core::compete_batched(net, sources, params, seeds);
    for (const auto& lane : lanes) EXPECT_TRUE(lane.success);
    const radio::PhaseTimers t = net.medium().phase_timers();
    EXPECT_EQ(t.rounds, net.rounds_elapsed());
    EXPECT_GT(t.rounds, 0u);
    return t;
  };

  const radio::PhaseTimers broadcast = timers_of({{0, 77}});
  EXPECT_EQ(broadcast.constfold_rounds, broadcast.rounds);
  EXPECT_EQ(broadcast.rowscan_rounds, 0u);

  const radio::PhaseTimers multi = timers_of({{2, 900}, {40, 901}, {77, 950}});
  EXPECT_EQ(multi.rowscan_rounds, multi.rounds);
  EXPECT_EQ(multi.constfold_rounds, 0u);

  const radio::PhaseTimers le_phase = timers_of({{3, 1}, {60, 1}, {120, 1}});
  EXPECT_EQ(le_phase.constfold_rounds, le_phase.rounds);
  EXPECT_EQ(le_phase.rowscan_rounds, 0u);
}

TEST(ProtocolLanes, BroadcastBatchedConvenienceBroadcasts) {
  util::Rng grng(44);
  const Graph g = graph::gnp(90, 0.1, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const auto seeds = make_seeds(8, 4001);
  const auto lanes = core::broadcast_batched(g, 5, 1234, params, seeds);
  ASSERT_EQ(lanes.size(), 8u);
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.winner, 1234u);
    if (lane.success) {
      EXPECT_EQ(lane.informed, g.node_count());
      for (const auto b : lane.best) EXPECT_EQ(b, 1234u);
    }
  }
}

TEST(ProtocolLanes, EmptySourcesVacuousSuccess) {
  const Graph g = graph::star(7);
  const auto seeds = make_seeds(4, 5001);
  const auto lanes =
      core::compete_batched(g, {}, BatchedCompeteParams{}, seeds);
  for (const auto& lane : lanes) {
    EXPECT_TRUE(lane.success);
    EXPECT_EQ(lane.rounds, 0u);
    EXPECT_EQ(lane.informed, 0u);
  }
}

// The lane-generic Decay primitive itself: per-lane participation masks,
// per-lane payload planes, per-lane RNG streams — batched over bitslice vs
// one scalar Network run per lane.
TEST(ProtocolLanes, DecayRoundLanesMatchesPerLaneScalarRuns) {
  util::Rng grng(45);
  const Graph g = graph::gnp(140, 0.08, grng);
  const NodeId n = g.node_count();
  const int lanes = 64;
  const auto seeds = make_seeds(lanes, 6001);

  // Random per-lane participation and per-lane payload planes.
  std::vector<std::uint64_t> participates(n, 0);
  std::vector<radio::Payload> payload(static_cast<std::size_t>(lanes) * n);
  util::Rng setup(46);
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (setup.bernoulli(0.35)) {
        participates[v] |= std::uint64_t{1} << l;
      }
      payload[static_cast<std::size_t>(l) * n + v] =
          1000 * static_cast<radio::Payload>(l + 1) + v;
    }
  }

  // Batched: all lanes through one BatchNetwork.
  std::vector<radio::Payload> best_batch(static_cast<std::size_t>(lanes) * n,
                                         radio::kNoPayload);
  std::vector<util::Rng> rngs;
  for (const auto s : seeds) rngs.emplace_back(s);
  radio::BatchNetwork bn(g, lanes);
  radio::BatchOutcome out;
  std::uint32_t batch_delivered = 0;
  for (int round = 0; round < 3; ++round) {
    batch_delivered += schedule::decay_round_lanes(
        bn, participates, radio::PayloadPlanes::lane_major(payload, n),
        radio::KnowledgePlanes::lane_major(best_batch, n), rngs, out);
  }

  // Reference: one scalar Network run per lane with the same seed.
  std::uint32_t scalar_delivered = 0;
  for (int l = 0; l < lanes; ++l) {
    std::vector<std::uint64_t> part1(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      part1[v] = participates[v] >> l & 1;
    }
    const auto plane_begin =
        payload.begin() + static_cast<std::ptrdiff_t>(l) * n;
    const std::vector<radio::Payload> plane(plane_begin, plane_begin + n);
    std::vector<radio::Payload> best1(n, radio::kNoPayload);
    util::Rng rng(seeds[static_cast<std::size_t>(l)]);
    radio::Network net(g);
    radio::BatchOutcome out1;
    for (int round = 0; round < 3; ++round) {
      scalar_delivered += schedule::decay_round_lanes(
          net, part1, plane, best1, std::span<util::Rng>(&rng, 1), out1);
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(best_batch[static_cast<std::size_t>(l) * n + v], best1[v])
          << "lane " << l << " node " << v;
    }
  }
  EXPECT_EQ(batch_delivered, scalar_delivered);
}

// The single-lane wrapper must behave exactly like a hand-driven 1-lane
// call (same draws, same best updates).
TEST(ProtocolLanes, ScalarDecayStepMatchesOneLaneCall) {
  util::Rng grng(47);
  const Graph g = graph::gnp(80, 0.1, grng);
  const NodeId n = g.node_count();
  std::vector<std::uint8_t> part(n, 0);
  std::vector<radio::Payload> pay(n, radio::kNoPayload);
  util::Rng setup(48);
  for (NodeId v = 0; v < n; ++v) {
    part[v] = setup.bernoulli(0.5);
    pay[v] = 100 + v;
  }

  radio::Network net_a(g);
  std::vector<radio::Payload> best_a(n, radio::kNoPayload);
  util::Rng rng_a(99);
  std::uint32_t del_a = 0;
  for (std::uint32_t s = 1; s <= 3; ++s) {
    del_a += schedule::decay_step(net_a, part, pay, s, best_a, rng_a);
  }

  radio::Network net_b(g);
  std::vector<std::uint64_t> mask(n, 0);
  for (NodeId v = 0; v < n; ++v) mask[v] = part[v] ? 1 : 0;
  std::vector<radio::Payload> best_b(n, radio::kNoPayload);
  util::Rng rng_b(99);
  radio::BatchOutcome out;
  std::uint32_t del_b = 0;
  for (std::uint32_t s = 1; s <= 3; ++s) {
    del_b += schedule::decay_step_lanes(net_b, mask, pay, s, best_b,
                                        std::span<util::Rng>(&rng_b, 1), out);
  }
  EXPECT_EQ(del_a, del_b);
  EXPECT_EQ(best_a, best_b);
}

TEST(ProtocolLanes, RejectsLaneOverflowAndBadPlanes) {
  const Graph g = graph::star(5);
  radio::Network net(g);
  const auto seeds = make_seeds(2, 1);
  EXPECT_THROW(
      core::compete_batched(net, {{0, 1}}, BatchedCompeteParams{}, seeds),
      std::invalid_argument);  // 2 seeds into a 1-lane executor

  radio::BatchNetwork bn(g, 8);
  std::vector<std::uint64_t> participates(g.node_count(), 0xFF);
  std::vector<radio::Payload> small_planes(g.node_count() * 4, 0);  // 4 lanes
  std::vector<radio::Payload> best(g.node_count() * 8, radio::kNoPayload);
  std::vector<util::Rng> rngs(8, util::Rng(1));
  radio::BatchOutcome out;
  EXPECT_THROW(
      schedule::decay_step_lanes(
          bn, participates,
          radio::PayloadPlanes::lane_major(small_planes, g.node_count()), 1,
          radio::KnowledgePlanes::lane_major(best, g.node_count()), rngs, out),
      std::invalid_argument);  // payload planes cover fewer lanes than rngs
}

}  // namespace
}  // namespace radiocast
