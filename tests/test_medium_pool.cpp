// Bitslice's gather pool: dense rounds run degree-balanced listener
// slices on the pool, per-slice outputs merge in slice-index order, and
// workers and slices only move cost — so every observable (per-lane
// senders, order included; masks; planes; counters) must be
// BYTE-IDENTICAL to the serial (1-worker) medium for any worker count, any
// slice count and any claim interleaving. Plus the pool itself (every
// index exactly once, generation reuse, teardown) and the node-major
// per-lane-payload differential across both backends.
#include "radio/medium_bitslice.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "lane_deliveries.hpp"
#include "radio/medium.hpp"
#include "radio/slice_pool.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;
using test_util::active_list;
using test_util::lane_deliveries;
using test_util::LaneDelivery;

std::vector<std::uint64_t> random_mask(NodeId n, int lanes, double p,
                                       util::Rng& rng) {
  std::vector<std::uint64_t> mask(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (rng.bernoulli(p)) mask[v] |= std::uint64_t{1} << l;
    }
  }
  return mask;
}

/// Everything a batch round observably produces, compared with operator==
/// — vector ORDER included, which is what "byte-identical" means here.
struct BatchObservables {
  std::vector<BatchDeliveredMask> delivered;
  std::vector<LaneDelivery> deliveries;
  std::vector<std::pair<NodeId, std::uint64_t>> collisions;
  std::array<std::uint32_t, kMaxLanes> transmitter_count{};
  std::array<std::uint32_t, kMaxLanes> delivered_count{};
  std::array<std::uint32_t, kMaxLanes> collided_count{};
  std::uint32_t active_listeners = 0;
  std::vector<Payload> best;

  bool operator==(const BatchObservables&) const = default;
};

BatchObservables capture(const BatchOutcome& out,
                         std::vector<LaneDelivery> deliveries,
                         std::vector<Payload> best) {
  BatchObservables o;
  o.delivered = out.delivered;
  o.deliveries = std::move(deliveries);
  for (const auto& c : out.collisions) o.collisions.emplace_back(c.node, c.lanes);
  o.transmitter_count = out.transmitter_count;
  o.delivered_count = out.delivered_count;
  o.collided_count = out.collided_count;
  o.active_listeners = out.active_listeners;
  o.best = std::move(best);
  return o;
}

/// Runs a fixed multi-round workload on one medium and returns every
/// observable in sequence: per round, a sender-id fold, a fold of per-lane
/// planes, a constant-plane fold (kAuto's const-fold), and a single-lane
/// resolve() round — over dense (gather, pooled) and sparse (scatter,
/// serial) shapes, with recovery `strategy`.
std::vector<BatchObservables> run_workload(const Graph& g,
                                           CollisionModel model, int workers,
                                           int slices,
                                           RecoveryStrategy strategy) {
  const NodeId n = g.node_count();
  BitsliceMedium medium(g, model, workers, slices);
  medium.set_recovery_strategy(strategy);
  util::Rng rng(4242);  // same stream for every worker count
  std::vector<BatchObservables> trace;
  for (int round = 0; round < 6; ++round) {
    // Alternate dense and sparse-tail shapes so both the gather and the
    // scatter kernels execute.
    const double density = round % 2 == 0 ? 0.3 : 0.01;
    const int lanes = round < 2 ? 1 : 64;
    const auto tx_mask = random_mask(n, lanes, density, rng);
    const std::vector<ActiveTx> entries = active_list(tx_mask);
    std::vector<Payload> planes(static_cast<std::size_t>(lanes) * n);
    for (int l = 0; l < lanes; ++l) {
      for (NodeId v = 0; v < n; ++v) {
        planes[static_cast<std::size_t>(v) * lanes + l] =
            9'000 * static_cast<Payload>(l + 1) + v;
      }
    }

    BatchOutcome ids;
    auto senders = lane_deliveries(medium, entries, lanes, ids);
    trace.push_back(capture(ids, std::move(senders), {}));

    const std::vector<Payload> constant(n, 5);
    for (const PayloadPlanes payload :
         {PayloadPlanes::node_major(planes, n), PayloadPlanes(constant)}) {
      std::vector<Payload> best(static_cast<std::size_t>(lanes) * n,
                                kNoPayload);
      BatchOutcome fold;
      medium.resolve_lanes(entries, payload, lanes,
                           KnowledgePlanes::node_major(best, n), fold);
      trace.push_back(capture(fold, {}, std::move(best)));
    }

    // Scalar facade round from the same stream.
    std::vector<NodeId> tx;
    std::vector<Payload> pay;
    for (NodeId v = 0; v < n; ++v) {
      if (tx_mask[v] & 1) {
        tx.push_back(v);
        pay.push_back(100 + v);
      }
    }
    SparseOutcome sp;
    medium.resolve(tx, pay, sp);
    BatchObservables so;
    for (const auto& d : sp.deliveries) {
      so.deliveries.push_back({d.node, 0, d.from});
      so.best.push_back(d.payload);  // the delivered payloads, in order
    }
    for (const NodeId c : sp.collided_nodes) so.collisions.emplace_back(c, 1);
    so.transmitter_count[0] = sp.transmitter_count;
    so.collided_count[0] = sp.collided_count;
    so.active_listeners = sp.active_listeners;
    trace.push_back(std::move(so));
  }
  return trace;
}

// The pool's contract: outcomes for 4 and 7 workers — over the default slice
// layout and over forced one-node slices — are byte-identical to the
// serial medium's, under both recovery strategies. The serial run has no
// pool; in the pooled runs any thread may claim any slice — none of it
// may show.
TEST(MediumPool, WorkerCountByteDeterminism) {
  util::Rng grng(71);
  const Graph g = graph::gnp(260, 0.05, grng);
  const int one_node = static_cast<int>(g.node_count());
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    for (const RecoveryStrategy strategy :
         {RecoveryStrategy::kAuto, RecoveryStrategy::kRowScan}) {
      const auto want = run_workload(g, model, /*workers=*/1, 0, strategy);
      for (const int workers : {4, 7}) {
        for (const int slices : {0, one_node}) {
          const auto got = run_workload(g, model, workers, slices, strategy);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << "workers=" << workers << " slices=" << slices
                << " step=" << i << " model=" << static_cast<int>(model)
                << " recovery=" << to_string(strategy);
          }
        }
      }
    }
  }
}

// One-node slices: every gather round hands the pool one claim per
// listener, so the workers interleave as finely as they can; outcomes
// still match the serial run exactly, over many repetitions to shake
// interleavings.
TEST(MediumPool, OneNodeSlicesStayDeterministic) {
  util::Rng grng(72);
  const Graph g = graph::gnp(150, 0.08, grng);
  const NodeId n = g.node_count();
  const int slices = static_cast<int>(n);  // one node per slice
  BitsliceMedium one(g, CollisionModel::kDetection, 1);
  BitsliceMedium many(g, CollisionModel::kDetection, 6, slices);
  EXPECT_EQ(many.slice_count(), slices);
  util::Rng rng_a(7), rng_b(7);
  for (int round = 0; round < 40; ++round) {
    const auto mask_a = random_mask(n, 64, 0.1, rng_a);
    const auto mask_b = random_mask(n, 64, 0.1, rng_b);
    ASSERT_EQ(mask_a, mask_b);
    std::vector<Payload> shared(n, 5);
    std::vector<Payload> best_a(static_cast<std::size_t>(64) * n, kNoPayload);
    std::vector<Payload> best_b = best_a;
    BatchOutcome out_a, out_b;
    one.resolve_lanes(active_list(mask_a), shared, 64,
                      KnowledgePlanes::node_major(best_a, n), out_a);
    many.resolve_lanes(active_list(mask_b), shared, 64,
                       KnowledgePlanes::node_major(best_b, n), out_b);
    ASSERT_EQ(best_a, best_b) << "round " << round;
    ASSERT_EQ(out_a.delivered, out_b.delivered) << "round " << round;
    ASSERT_EQ(out_a.delivered_count, out_b.delivered_count);
    ASSERT_EQ(out_a.active_listeners, out_b.active_listeners);
  }
}

// Worker count: explicit, capped at the node count; serial media keep
// one slice and start no pool. The slice knob is honoured and capped at
// the node count.
TEST(MediumPool, WorkerAndSliceCounts) {
  util::Rng grng(73);
  const Graph g = graph::gnp(200, 0.06, grng);
  BitsliceMedium a(g, CollisionModel::kNoDetection, 1, 23);
  EXPECT_EQ(a.worker_count(), 1);
  EXPECT_EQ(a.slice_count(), 1);
  BitsliceMedium b(g, CollisionModel::kNoDetection, 7);
  EXPECT_EQ(b.worker_count(), 7);
  EXPECT_GE(b.slice_count(), 1);

  BitsliceMedium c(g, CollisionModel::kNoDetection, 2, 23);
  EXPECT_EQ(c.slice_count(), 23);
  BitsliceMedium d(g, CollisionModel::kNoDetection, 2, 1 << 20);
  EXPECT_EQ(d.slice_count(), static_cast<int>(g.node_count()));
  const Graph tiny = graph::path(3);
  EXPECT_EQ(BitsliceMedium(tiny, CollisionModel::kNoDetection, 8)
                .worker_count(),
            3);
}

// Node-major per-lane payload planes: every backend (scalar, bitslice
// serial and pooled) must fold the same (lane, node) values and report
// the same masks and counters, and each delivered value must be the
// sender's own-lane payload.
TEST(MediumPool, NodeMajorPerLaneDifferentialAllBackends) {
  util::Rng rng(75);
  const Graph g = graph::gnp(140, 0.06, rng);
  const NodeId n = g.node_count();
  constexpr std::pair<MediumKind, int> kAll[] = {{MediumKind::kScalar, 1},
                                                 {MediumKind::kBitslice, 1},
                                                 {MediumKind::kBitslice, 4}};
  for (const int lanes : {7, 64}) {
    const auto tx = active_list(random_mask(n, lanes, 0.2, rng));
    std::vector<Payload> payload(static_cast<std::size_t>(lanes) * n);
    for (int l = 0; l < lanes; ++l) {
      for (NodeId v = 0; v < n; ++v) {
        payload[static_cast<std::size_t>(v) * lanes + l] =
            3'000 * static_cast<Payload>(l + 1) + v;
      }
    }
    // Delivery order is first-touch order, which differs across backends;
    // the per-listener lane masks do not.
    auto masks = [n](const BatchOutcome& o) {
      std::vector<std::uint64_t> m(n, 0);
      for (const auto& d : o.delivered) m[d.node] = d.lanes;
      return m;
    };
    std::vector<Payload> want_best;
    BatchOutcome want;
    for (const auto& [kind, threads] : kAll) {
      auto medium =
          make_medium(kind, g, CollisionModel::kNoDetection, threads);
      std::vector<Payload> best(static_cast<std::size_t>(lanes) * n,
                                kNoPayload);
      BatchOutcome out;
      medium->resolve_lanes(tx, PayloadPlanes::node_major(payload, n), lanes,
                            KnowledgePlanes::node_major(best, n), out);
      if (kind == MediumKind::kScalar) {
        BatchOutcome ids;
        for (const LaneDelivery& d : lane_deliveries(*medium, tx, lanes, ids)) {
          ASSERT_EQ(best[static_cast<std::size_t>(d.node) * lanes + d.lane],
                    3'000 * static_cast<Payload>(d.lane + 1) + d.from)
              << "lane " << d.lane << " node " << d.node;
        }
        want_best = std::move(best);
        want = out;
        continue;
      }
      const std::string ctx =
          std::string(to_string(kind)) + " threads=" + std::to_string(threads);
      EXPECT_EQ(best, want_best) << ctx;
      EXPECT_EQ(masks(out), masks(want)) << ctx;
      EXPECT_EQ(out.delivered_count, want.delivered_count) << ctx;
      EXPECT_EQ(out.transmitter_count, want.transmitter_count) << ctx;
    }
  }
}

// Multi-lane folds through the implicit single-plane view must be
// rejected: a raw vector is a 1-lane adapter, not a multi-lane buffer.
// KnowledgePlanes::shared is the explicit all-lanes-into-one-plane view.
TEST(MediumPool, ImplicitSinglePlaneRejectsMultiLane) {
  util::Rng rng(76);
  const Graph g = graph::gnp(60, 0.1, rng);
  const NodeId n = g.node_count();
  const auto tx = active_list(random_mask(n, 8, 0.3, rng));
  const std::vector<Payload> shared(n, 1);
  std::vector<Payload> best(static_cast<std::size_t>(8) * n, kNoPayload);
  BitsliceMedium medium(g, CollisionModel::kNoDetection, 2);
  BatchOutcome out;
  EXPECT_THROW(medium.resolve_lanes(tx, shared, 8, best, out),
               std::invalid_argument);
  // The explicit view over the same buffer is fine.
  medium.resolve_lanes(tx, shared, 8, KnowledgePlanes::node_major(best, n),
                       out);

  // So is the explicit shared view: every lane folds into one n-word
  // plane, each node's word the max over the lanes it received in.
  std::vector<Payload> planes(static_cast<std::size_t>(8) * n);
  for (std::size_t i = 0; i < planes.size(); ++i) planes[i] = 10 + i;
  const PayloadPlanes per_lane = PayloadPlanes::node_major(planes, n);
  std::vector<Payload> lane_best(static_cast<std::size_t>(8) * n, kNoPayload);
  std::vector<Payload> heard(n, kNoPayload);
  BatchOutcome lane_out, shared_out;
  medium.resolve_lanes(tx, per_lane, 8,
                       KnowledgePlanes::node_major(lane_best, n), lane_out);
  medium.resolve_lanes(tx, per_lane, 8, KnowledgePlanes::shared(heard),
                       shared_out);
  EXPECT_EQ(shared_out.delivered, lane_out.delivered);
  for (NodeId v = 0; v < n; ++v) {
    Payload want = kNoPayload;
    for (int l = 0; l < 8; ++l) {
      const Payload b = lane_best[static_cast<std::size_t>(v) * 8 + l];
      if (b != kNoPayload && (want == kNoPayload || b > want)) want = b;
    }
    EXPECT_EQ(heard[v], want) << "node " << v;
  }
}

// The pool's own contract: run(count, job) calls job(i) exactly once for
// every i < count and returns only after the last call, for any worker
// count; one pool serves many back-to-back runs (each a new generation of
// the kick/wait handshake); a pool that never ran tears down cleanly. The
// counters are plain ints on purpose: under TSan, a missing happens-before
// between a worker's writes and run()'s return is a reported race. The
// first jobs sleep so the parked threads wake while indices are left, and
// a run() that returned before its workers finished would show a miss.
TEST(MediumPool, RunsEachIndexExactlyOnce) {
  for (const int workers : {2, 4, 7}) {
    { const SlicePool idle(workers); }
    SlicePool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    for (const std::size_t count : {0u, 1u, 3u, 1000u}) {
      std::vector<int> hits(count, 0);
      auto job = [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        ++hits[i];
      };
      pool.run(count, job);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i], 1) << "workers=" << workers << " count=" << count
                              << " index=" << i;
      }
    }
    std::vector<int> hits(64, 0);
    auto job = [&](std::size_t i) { ++hits[i]; };
    for (int run = 0; run < 200; ++run) pool.run(hits.size(), job);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 200) << "workers=" << workers << " index=" << i;
    }
  }
}

// A throwing job surfaces on the caller once every worker is done, the
// other indices still run, and the pool stays usable.
TEST(MediumPool, RethrowsAJobExceptionAndStaysUsable) {
  SlicePool pool(4);
  std::vector<int> hits(100, 0);
  auto failing = [&](std::size_t i) {
    if (i == 37) throw std::runtime_error("slice 37");
    ++hits[i];
  };
  EXPECT_THROW(pool.run(hits.size(), failing), std::runtime_error);
  auto job = [&](std::size_t i) { ++hits[i]; };
  pool.run(hits.size(), job);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i == 37 ? 1 : 2) << "index " << i;
  }
}

}  // namespace
}  // namespace radiocast::radio
