// Work-stealing sharded medium: the slice layout is a pure function of
// the graph (+ the slice knob), per-slice outputs merge in slice-index
// order, and workers only move cost — so every observable (deliveries,
// order included; masks; planes; counters) must be BYTE-IDENTICAL for any
// worker count and any steal interleaving. Plus the node-major/lane-major
// knowledge-plane differential across all three backends: the layout is a
// view, never a semantic.
#include "radio/medium_sharded.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "graph/generators.hpp"
#include "radio/medium.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;

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
  std::vector<BatchDelivery> deliveries;
  std::vector<std::pair<NodeId, std::uint64_t>> collisions;
  std::array<std::uint32_t, kMaxLanes> transmitter_count{};
  std::array<std::uint32_t, kMaxLanes> delivered_count{};
  std::array<std::uint32_t, kMaxLanes> collided_count{};
  std::uint32_t active_listeners = 0;
  std::vector<Payload> best;

  bool operator==(const BatchObservables&) const = default;
};

BatchObservables capture(const BatchOutcome& out, std::vector<Payload> best) {
  BatchObservables o;
  o.delivered = out.delivered;
  o.deliveries = out.deliveries;
  for (const auto& c : out.collisions) o.collisions.emplace_back(c.node, c.lanes);
  o.transmitter_count = out.transmitter_count;
  o.delivered_count = out.delivered_count;
  o.collided_count = out.collided_count;
  o.active_listeners = out.active_listeners;
  o.best = std::move(best);
  return o;
}

/// Runs a fixed multi-round workload (scalar rounds + batch rounds with
/// senders + max-fold rounds, dense and sparse shapes) on one medium and
/// returns every observable in sequence.
std::vector<BatchObservables> run_workload(const Graph& g,
                                           CollisionModel model, int workers,
                                           int slices) {
  const NodeId n = g.node_count();
  ShardedMedium medium(g, model, workers, slices);
  util::Rng rng(4242);  // same stream for every worker count
  std::vector<BatchObservables> trace;
  for (int round = 0; round < 6; ++round) {
    // Alternate dense and sparse-tail shapes so both the gather and the
    // scatter kernels (and their tx-segment prologue) execute.
    const double density = round % 2 == 0 ? 0.3 : 0.01;
    const int lanes = round < 2 ? 1 : 64;
    const auto tx_mask = random_mask(n, lanes, density, rng);
    std::vector<Payload> planes(static_cast<std::size_t>(lanes) * n);
    for (int l = 0; l < lanes; ++l) {
      for (NodeId v = 0; v < n; ++v) {
        planes[static_cast<std::size_t>(l) * n + v] =
            9'000 * static_cast<Payload>(l + 1) + v;
      }
    }
    const PayloadPlanes payload = PayloadPlanes::lane_major(planes, n);

    BatchOutcome out;
    medium.resolve_batch(tx_mask, payload, lanes, out, /*with_senders=*/true);
    trace.push_back(capture(out, {}));

    std::vector<Payload> best(static_cast<std::size_t>(lanes) * n, kNoPayload);
    BatchOutcome fold;
    medium.resolve_batch_max(tx_mask, payload, lanes,
                             KnowledgePlanes::node_major(best, n), fold);
    trace.push_back(capture(fold, std::move(best)));

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
      so.deliveries.push_back({d.node, 0, d.from, d.payload});
    }
    for (const NodeId c : sp.collided_nodes) so.collisions.emplace_back(c, 1);
    so.transmitter_count[0] = sp.transmitter_count;
    so.collided_count[0] = sp.collided_count;
    so.active_listeners = sp.active_listeners;
    trace.push_back(std::move(so));
  }
  return trace;
}

// Tentpole pin: byte-identical outcomes for 1, 4, and 7 workers over the
// SAME slice layout. The 1-worker run never steals; the multi-worker runs
// steal arbitrarily — none of it may show.
TEST(MediumSharded, WorkerCountByteDeterminism) {
  util::Rng grng(71);
  const Graph g = graph::gnp(260, 0.05, grng);
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    const auto want = run_workload(g, model, /*workers=*/1, /*slices=*/37);
    for (const int workers : {4, 7}) {
      const auto got = run_workload(g, model, workers, /*slices=*/37);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "workers=" << workers << " step=" << i
            << " model=" << static_cast<int>(model);
      }
    }
  }
}

// Forced-steal stress: slice granularity of ~1 node makes every worker's
// own deque tiny and guarantees heavy stealing; outcomes still match the
// single-worker run exactly, over many repetitions to shake interleavings.
TEST(MediumSharded, ForcedStealStaysDeterministic) {
  util::Rng grng(72);
  const Graph g = graph::gnp(150, 0.08, grng);
  const NodeId n = g.node_count();
  const int slices = static_cast<int>(n);  // ~1 node per slice
  ShardedMedium one(g, CollisionModel::kDetection, 1, slices);
  ShardedMedium many(g, CollisionModel::kDetection, 6, slices);
  EXPECT_EQ(one.slice_count(), many.slice_count());
  util::Rng rng_a(7), rng_b(7);
  for (int round = 0; round < 40; ++round) {
    const auto mask_a = random_mask(n, 64, 0.1, rng_a);
    const auto mask_b = random_mask(n, 64, 0.1, rng_b);
    ASSERT_EQ(mask_a, mask_b);
    std::vector<Payload> shared(n, 5);
    std::vector<Payload> best_a(static_cast<std::size_t>(64) * n, kNoPayload);
    std::vector<Payload> best_b = best_a;
    BatchOutcome out_a, out_b;
    one.resolve_batch_max(mask_a, shared, 64,
                          KnowledgePlanes::node_major(best_a, n), out_a);
    many.resolve_batch_max(mask_b, shared, 64,
                           KnowledgePlanes::node_major(best_b, n), out_b);
    ASSERT_EQ(best_a, best_b) << "round " << round;
    ASSERT_EQ(out_a.delivered, out_b.delivered) << "round " << round;
    ASSERT_EQ(out_a.delivered_count, out_b.delivered_count);
    ASSERT_EQ(out_a.active_listeners, out_b.active_listeners);
  }
}

// The slice layout is worker-count independent (that is WHY outcomes can
// be), while shard_count keeps meaning the worker count.
TEST(MediumSharded, SliceLayoutIndependentOfWorkers) {
  util::Rng grng(73);
  const Graph g = graph::gnp(200, 0.06, grng);
  ShardedMedium a(g, CollisionModel::kNoDetection, 1);
  ShardedMedium b(g, CollisionModel::kNoDetection, 7);
  EXPECT_EQ(a.slice_count(), b.slice_count());
  EXPECT_EQ(a.shard_count(), 1);
  EXPECT_EQ(b.shard_count(), 7);
  EXPECT_EQ(b.worker_count(), 7);

  // Explicit slice knob; capped at node count.
  ShardedMedium c(g, CollisionModel::kNoDetection, 2, 23);
  EXPECT_EQ(c.slice_count(), 23);
  ShardedMedium d(g, CollisionModel::kNoDetection, 2, 1 << 20);
  EXPECT_LE(d.slice_count(), static_cast<int>(g.node_count()));
}

// RADIOCAST_SHARD_SLICES overrides the default; invalid values throw
// (same hardening contract as RADIOCAST_SHARD_THREADS).
TEST(MediumSharded, SliceEnvOverride) {
  util::Rng grng(74);
  const Graph g = graph::gnp(120, 0.05, grng);
  ASSERT_EQ(setenv("RADIOCAST_SHARD_SLICES", "11", 1), 0);
  {
    ShardedMedium m(g, CollisionModel::kNoDetection, 2);
    EXPECT_EQ(m.slice_count(), 11);
    // Explicit argument beats the env var.
    ShardedMedium e(g, CollisionModel::kNoDetection, 2, 5);
    EXPECT_EQ(e.slice_count(), 5);
  }
  ASSERT_EQ(setenv("RADIOCAST_SHARD_SLICES", "banana", 1), 0);
  EXPECT_THROW(ShardedMedium(g, CollisionModel::kNoDetection, 2),
               std::invalid_argument);
  unsetenv("RADIOCAST_SHARD_SLICES");
}

// Node-major vs lane-major knowledge planes: same fold, different view.
// For every backend, folding into a node-major buffer and into a
// lane-major buffer must produce the same (lane, node) values — pinned by
// remapping one onto the other — and the payload side must agree too when
// the planes come in node-major form.
TEST(MediumSharded, NodeMajorLaneMajorDifferentialAllBackends) {
  util::Rng rng(75);
  const Graph g = graph::gnp(140, 0.06, rng);
  const NodeId n = g.node_count();
  constexpr MediumKind kAll[] = {MediumKind::kScalar, MediumKind::kBitslice,
                                 MediumKind::kSharded};
  for (const int lanes : {7, 64}) {
    const auto tx_mask = random_mask(n, lanes, 0.2, rng);
    // Same logical payloads in both layouts.
    std::vector<Payload> lane_major_payload(
        static_cast<std::size_t>(lanes) * n);
    std::vector<Payload> node_major_payload(
        static_cast<std::size_t>(lanes) * n);
    for (int l = 0; l < lanes; ++l) {
      for (NodeId v = 0; v < n; ++v) {
        const Payload p = 3'000 * static_cast<Payload>(l + 1) + v;
        lane_major_payload[static_cast<std::size_t>(l) * n + v] = p;
        node_major_payload[static_cast<std::size_t>(v) * lanes + l] = p;
      }
    }
    for (const MediumKind kind : kAll) {
      auto medium = make_medium(kind, g, CollisionModel::kNoDetection, 3);
      std::vector<Payload> best_lm(static_cast<std::size_t>(lanes) * n,
                                   kNoPayload);
      std::vector<Payload> best_nm(static_cast<std::size_t>(lanes) * n,
                                   kNoPayload);
      BatchOutcome out_lm, out_nm;
      medium->resolve_batch_max(
          tx_mask, PayloadPlanes::lane_major(lane_major_payload, n), lanes,
          KnowledgePlanes::lane_major(best_lm, n), out_lm);
      medium->resolve_batch_max(
          tx_mask, PayloadPlanes::node_major(node_major_payload, n), lanes,
          KnowledgePlanes::node_major(best_nm, n), out_nm);
      EXPECT_EQ(out_lm.delivered, out_nm.delivered) << to_string(kind);
      EXPECT_EQ(out_lm.delivered_count, out_nm.delivered_count)
          << to_string(kind);
      for (int l = 0; l < lanes; ++l) {
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(best_lm[static_cast<std::size_t>(l) * n + v],
                    best_nm[static_cast<std::size_t>(v) * lanes + l])
              << to_string(kind) << " lane " << l << " node " << v;
        }
      }
    }
  }
}

// Multi-lane folds through the implicit single-plane view must be
// rejected: a raw vector is a 1-lane adapter, not a multi-lane buffer.
TEST(MediumSharded, ImplicitSinglePlaneRejectsMultiLane) {
  util::Rng rng(76);
  const Graph g = graph::gnp(60, 0.1, rng);
  const NodeId n = g.node_count();
  const auto tx_mask = random_mask(n, 8, 0.3, rng);
  const std::vector<Payload> shared(n, 1);
  std::vector<Payload> best(static_cast<std::size_t>(8) * n, kNoPayload);
  ShardedMedium medium(g, CollisionModel::kNoDetection, 2);
  BatchOutcome out;
  EXPECT_THROW(medium.resolve_batch_max(tx_mask, shared, 8, best, out),
               std::invalid_argument);
  // The explicit view over the same buffer is fine.
  medium.resolve_batch_max(tx_mask, shared, 8,
                           KnowledgePlanes::node_major(best, n), out);
}

}  // namespace
}  // namespace radiocast::radio
