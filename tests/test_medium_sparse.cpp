// Differential tests for the sparse transmitter-list path: bitslice's
// resolve_batch_active / resolve_batch_max_active build the round from the
// ActiveTx list (no 0..n scan) and must be byte-identical to the scalar
// reference (and agree with the dense entry points of every backend) on
// deliveries, delivered masks, best[] planes, and tallies — across both
// collision models, 1/7/64 lanes, and both dense rounds and the
// sparse-tail rounds the path exists for. Also covered: the lazily-cleared
// staging mask across repeated sparse rounds (stale lanes are a real
// hazard), resolve_batch_active == dense on both backends, the
// single-lane resolve() facade that now rides the same path, the
// active_listeners cost diagnostic, and the enqueue_ns/drain_ns phase
// attribution of list-driven rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "radio/batch_network.hpp"
#include "radio/medium.hpp"
#include "radio/network.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr MediumKind kAllKinds[] = {MediumKind::kScalar,
                                    MediumKind::kBitslice};

std::vector<BatchDelivery> sorted(std::vector<BatchDelivery> v) {
  std::sort(v.begin(), v.end(),
            [](const BatchDelivery& a, const BatchDelivery& b) {
              return std::tie(a.node, a.lane, a.from) <
                     std::tie(b.node, b.lane, b.from);
            });
  return v;
}

std::vector<std::uint64_t> delivered_masks(const BatchOutcome& o, NodeId n) {
  std::vector<std::uint64_t> m(n, 0);
  for (const auto& d : o.delivered) m[d.node] |= d.lanes;
  return m;
}

std::vector<std::uint64_t> collision_masks(const BatchOutcome& o, NodeId n) {
  std::vector<std::uint64_t> m(n, 0);
  for (const auto& c : o.collisions) m[c.node] |= c.lanes;
  return m;
}

/// Builds a transmit-mask round: `density` per (node, lane), restricted to
/// the first `sources` nodes when sources < n (the sparse-tail shape).
std::vector<std::uint64_t> make_round(NodeId n, int lanes, double density,
                                      NodeId sources, util::Rng& rng) {
  std::vector<std::uint64_t> tx_mask(n, 0);
  for (NodeId v = 0; v < std::min(sources, n); ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (rng.bernoulli(density)) tx_mask[v] |= std::uint64_t{1} << l;
    }
  }
  return tx_mask;
}

/// The sparse view of a dense mask: one entry per transmitting node.
std::vector<ActiveTx> entries_of(std::span<const std::uint64_t> tx_mask) {
  std::vector<ActiveTx> entries;
  for (NodeId v = 0; v < tx_mask.size(); ++v) {
    if (tx_mask[v] != 0) entries.push_back({v, tx_mask[v]});
  }
  return entries;
}

/// Runs one round on `kind` — through the dense entry points, or through
/// the sparse-list ones when `active` — and checks every observable
/// against the scalar reference outcome.
void check_against_scalar(const Graph& g, CollisionModel model, int lanes,
                          std::span<const std::uint64_t> tx_mask,
                          std::span<const Payload> planes,
                          const BatchOutcome& want,
                          std::span<const Payload> want_best, MediumKind kind,
                          bool active) {
  const NodeId n = g.node_count();
  const PayloadPlanes payload = PayloadPlanes::lane_major(planes, n);
  const std::vector<ActiveTx> entries = entries_of(tx_mask);
  auto medium = make_medium(kind, g, model, /*threads=*/3);
  BatchOutcome got;
  if (active) {
    medium->resolve_batch_active(entries, payload, lanes, got);
  } else {
    medium->resolve_batch(tx_mask, payload, lanes, got);
  }
  const std::string ctx = std::string(to_string(kind)) +
                          (active ? " active" : " dense") +
                          " lanes=" + std::to_string(lanes) +
                          " model=" + std::to_string(static_cast<int>(model));
  EXPECT_EQ(got.transmitter_count, want.transmitter_count) << ctx;
  EXPECT_EQ(got.delivered_count, want.delivered_count) << ctx;
  EXPECT_EQ(got.collided_count, want.collided_count) << ctx;
  EXPECT_EQ(sorted(got.deliveries), sorted(want.deliveries)) << ctx;
  EXPECT_EQ(delivered_masks(got, n), delivered_masks(want, n)) << ctx;
  EXPECT_EQ(collision_masks(got, n), collision_masks(want, n)) << ctx;
  if (model == CollisionModel::kNoDetection) {
    EXPECT_TRUE(got.collisions.empty()) << ctx;
  }

  std::vector<Payload> got_best(static_cast<std::size_t>(lanes) * n,
                                kNoPayload);
  const KnowledgePlanes best = KnowledgePlanes::lane_major(got_best, n);
  BatchOutcome fold_out;
  if (active) {
    medium->resolve_batch_max_active(entries, payload, lanes, best, fold_out);
  } else {
    medium->resolve_batch_max(tx_mask, payload, lanes, best, fold_out);
  }
  EXPECT_EQ(got_best, std::vector<Payload>(want_best.begin(), want_best.end()))
      << ctx;  // byte-identical planes
  EXPECT_EQ(delivered_masks(fold_out, n), delivered_masks(want, n)) << ctx;
}

// Tentpole differential: dense rounds (every node may transmit) and
// sparse-tail rounds (a handful of sources in a large quiet graph) across
// both collision models and 1/7/64 lanes, on GnP and cluster topologies —
// bitslice's sparse-list and dense entry points, each against the scalar
// reference.
TEST(MediumSparse, DifferentialAgainstScalar) {
  util::Rng rng(91);
  const Graph gnp = graph::gnp(140, 0.06, rng);
  const Graph cliques = graph::path_of_cliques(8, 7);
  for (const Graph* g : {&gnp, &cliques}) {
    const NodeId n = g->node_count();
    for (const CollisionModel model :
         {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
      for (const int lanes : {1, 7, 64}) {
        // Dense round + sparse-tail round (4 sources, low lane density).
        for (const bool sparse : {false, true}) {
          const std::vector<std::uint64_t> tx_mask =
              sparse ? make_round(n, lanes, 0.5, 4, rng)
                     : make_round(n, lanes, 0.25, n, rng);
          std::vector<Payload> planes(static_cast<std::size_t>(lanes) * n);
          for (int l = 0; l < lanes; ++l) {
            for (NodeId v = 0; v < n; ++v) {
              planes[static_cast<std::size_t>(l) * n + v] =
                  5'000 * static_cast<Payload>(l + 1) + v;
            }
          }
          auto scalar = make_medium(MediumKind::kScalar, *g, model);
          BatchOutcome want;
          scalar->resolve_batch(
              tx_mask, PayloadPlanes::lane_major(planes, n), lanes, want);
          std::vector<Payload> want_best(static_cast<std::size_t>(lanes) * n,
                                         kNoPayload);
          BatchOutcome want_fold;
          scalar->resolve_batch_max(tx_mask,
                                    PayloadPlanes::lane_major(planes, n),
                                    lanes,
                                    KnowledgePlanes::lane_major(want_best, n),
                                    want_fold);
          for (const bool active : {true, false}) {
            check_against_scalar(*g, model, lanes, tx_mask, planes, want,
                                 want_best, MediumKind::kBitslice, active);
          }
        }
      }
    }
  }
}

// The single-instance facade rides bitslice's sparse-list path. It must
// match scalar on every round, and on sparse-tail rounds byte-for-byte —
// delivery ORDER included: both walk the caller's transmitter list (first
// appearance wins for duplicates) and emit listeners in first-touch order.
TEST(MediumSparse, BitsliceResolveMatchesScalar) {
  util::Rng rng(92);
  // avg degree ~8: three sources stay far below the n/2 traversal volume
  // where bitslice switches to its dense (node-order) output scan.
  const Graph g = graph::gnp(400, 0.02, rng);
  const NodeId n = g.node_count();
  auto by_node = [](std::vector<SparseDelivery> v) {
    std::sort(v.begin(), v.end(),
              [](const SparseDelivery& a, const SparseDelivery& b) {
                return a.node < b.node;
              });
    return v;
  };
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    Network ref(g, model, MediumKind::kScalar);
    Network bitslice(g, model, MediumKind::kBitslice);
    for (int round = 0; round < 12; ++round) {
      // Odd rounds: three unsorted sources, one listed twice with a
      // different payload (the first must win). Even rounds: dense.
      const bool tail = round % 2 == 1;
      std::vector<NodeId> tx;
      std::vector<Payload> pay;
      if (tail) {
        for (int i = 0; i < 3; ++i) {
          tx.push_back(static_cast<NodeId>(rng.uniform(n)));
          pay.push_back(3000 + tx.back());
        }
        tx.push_back(tx[1]);
        pay.push_back(9);
      } else {
        for (NodeId v = 0; v < n; ++v) {
          if (rng.bernoulli(round % 4 == 0 ? 0.3 : 0.8)) tx.push_back(v);
        }
        rng.shuffle(tx);
        for (const NodeId v : tx) pay.push_back(3000 + v);
      }
      SparseOutcome want, got;
      ref.resolve(tx, pay, want);
      bitslice.resolve(tx, pay, got);
      if (tail) {
        EXPECT_EQ(got.deliveries, want.deliveries) << "round " << round;
      } else {
        EXPECT_EQ(by_node(got.deliveries), by_node(want.deliveries))
            << "round " << round;
      }
      EXPECT_EQ(got.transmitter_count, want.transmitter_count);
      EXPECT_EQ(got.collided_count, want.collided_count);
      EXPECT_EQ(got.active_listeners, want.active_listeners);
      std::vector<NodeId> got_coll = got.collided_nodes;
      std::vector<NodeId> want_coll = want.collided_nodes;
      std::sort(got_coll.begin(), got_coll.end());
      std::sort(want_coll.begin(), want_coll.end());
      EXPECT_EQ(got_coll, want_coll);
    }
  }
}

// Lazy-reset regression: the staging mask is cleared only at the listed
// transmitters, so state from round r must not leak into round r+1.
// Disjoint transmitter sets, then heavily overlapping ones (staged words
// must OR within a round but not resurrect the previous round's lanes),
// then sparse-tail rounds on the scatter path.
TEST(MediumSparse, LazyResetAcrossRounds) {
  util::Rng rng(93);
  const Graph g = graph::gnp(100, 0.08, rng);
  const NodeId n = g.node_count();
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    // A fresh scalar medium per round is the stateless reference; one
    // long-lived bitslice medium accumulates any reset bug.
    auto bitslice = make_medium(MediumKind::kBitslice, g, model);
    std::vector<Payload> planes(n);
    for (NodeId v = 0; v < n; ++v) planes[v] = 100 + v;
    auto run_round = [&](const std::vector<std::uint64_t>& tx_mask) {
      auto scalar = make_medium(MediumKind::kScalar, g, model);
      BatchOutcome want, got;
      scalar->resolve_batch(tx_mask, planes, 64, want);
      bitslice->resolve_batch_active(entries_of(tx_mask), planes, 64, got);
      EXPECT_EQ(sorted(got.deliveries), sorted(want.deliveries));
      EXPECT_EQ(delivered_masks(got, n), delivered_masks(want, n));
      EXPECT_EQ(collision_masks(got, n), collision_masks(want, n));
      EXPECT_EQ(got.transmitter_count, want.transmitter_count);
      EXPECT_EQ(got.delivered_count, want.delivered_count);
      EXPECT_EQ(got.collided_count, want.collided_count);
    };
    // Phase 1: disjoint halves alternate (nothing staged twice in a row).
    for (int round = 0; round < 4; ++round) {
      std::vector<std::uint64_t> tx_mask(n, 0);
      for (NodeId v = (round % 2 == 0) ? 0 : n / 2;
           v < ((round % 2 == 0) ? n / 2 : n); ++v) {
        if (rng.bernoulli(0.3)) tx_mask[v] = rng();
      }
      run_round(tx_mask);
    }
    // Phase 2: heavily overlapping sets with round-varying lane masks —
    // a stale staged word changes the outcome.
    std::vector<std::uint64_t> base = make_round(n, 64, 0.4, n, rng);
    for (int round = 0; round < 4; ++round) {
      std::vector<std::uint64_t> tx_mask = base;
      for (NodeId v = 0; v < n; ++v) {
        if (rng.bernoulli(0.5)) tx_mask[v] = rng() & base[v];
      }
      run_round(tx_mask);
    }
    // Phase 3: sparse-tail rounds from a shifting 4-node window.
    for (int round = 0; round < 6; ++round) {
      std::vector<std::uint64_t> tx_mask(n, 0);
      const auto lo = static_cast<NodeId>(2 * round);
      for (NodeId v = lo; v < lo + 4; ++v) tx_mask[v] = rng();
      run_round(tx_mask);
    }
  }
}

// The sparse entry point must agree with the dense one on every backend
// (bitslice runs it natively; scalar decomposes the list per lane) —
// including duplicate entries, whose lane masks OR together, and a throw
// that must leave the medium reusable.
TEST(MediumSparse, ResolveBatchActiveMatchesDenseOnAllBackends) {
  util::Rng rng(94);
  const Graph g = graph::gnp(110, 0.07, rng);
  const NodeId n = g.node_count();
  const int lanes = 64;
  std::vector<Payload> planes(n);
  for (NodeId v = 0; v < n; ++v) planes[v] = 700 + v;
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    std::vector<std::uint64_t> tx_mask = make_round(n, lanes, 0.1, n, rng);
    // Sparse view, with each transmitter's mask split across duplicate
    // entries to exercise the OR semantics.
    std::vector<ActiveTx> entries;
    for (NodeId v = 0; v < n; ++v) {
      if (tx_mask[v] == 0) continue;
      const std::uint64_t half = tx_mask[v] & rng();
      if (half != 0 && half != tx_mask[v]) {
        entries.push_back({v, half});
        entries.push_back({v, tx_mask[v] & ~half});
        entries.push_back({v, half});  // full duplicate, must be idempotent
      } else {
        entries.push_back({v, tx_mask[v]});
      }
    }
    for (const MediumKind kind : kAllKinds) {
      auto medium = make_medium(kind, g, model, 3);
      BatchOutcome want, got;
      medium->resolve_batch(tx_mask, planes, lanes, want);
      medium->resolve_batch_active(entries, planes, lanes, got);
      const std::string ctx(to_string(kind));
      EXPECT_EQ(got.transmitter_count, want.transmitter_count) << ctx;
      EXPECT_EQ(got.delivered_count, want.delivered_count) << ctx;
      EXPECT_EQ(got.collided_count, want.collided_count) << ctx;
      EXPECT_EQ(sorted(got.deliveries), sorted(want.deliveries)) << ctx;
      EXPECT_EQ(delivered_masks(got, n), delivered_masks(want, n)) << ctx;
      EXPECT_EQ(collision_masks(got, n), collision_masks(want, n)) << ctx;

      // Max-fold through the sparse entry point.
      std::vector<Payload> want_best(static_cast<std::size_t>(lanes) * n,
                                     kNoPayload);
      std::vector<Payload> got_best(static_cast<std::size_t>(lanes) * n,
                                    kNoPayload);
      BatchOutcome fold_want, fold_got;
      medium->resolve_batch_max(tx_mask, planes, lanes,
                                KnowledgePlanes::lane_major(want_best, n),
                                fold_want);
      medium->resolve_batch_max_active(
          entries, planes, lanes, KnowledgePlanes::lane_major(got_best, n),
          fold_got);
      EXPECT_EQ(got_best, want_best) << ctx;

      // Out-of-range nodes must throw on every backend — here after valid
      // entries have already been staged — and the medium must stay
      // usable afterwards (scratch not left dirty).
      std::vector<ActiveTx> bad = entries;
      bad.push_back({n, 1});
      BatchOutcome bad_out;
      EXPECT_THROW(
          medium->resolve_batch_active(bad, planes, lanes, bad_out),
          std::invalid_argument)
          << ctx;
      BatchOutcome after;
      medium->resolve_batch_active(entries, planes, lanes, after);
      EXPECT_EQ(delivered_masks(after, n), delivered_masks(want, n)) << ctx;
      EXPECT_EQ(after.transmitter_count, want.transmitter_count) << ctx;
    }
  }
}

// LaneExecutor wiring: BatchNetwork::step_lanes_active must produce the
// same outcome and counters as the dense step() on every backend.
TEST(MediumSparse, BatchNetworkStepLanesActive) {
  util::Rng rng(95);
  const Graph g = graph::gnp(90, 0.08, rng);
  const NodeId n = g.node_count();
  const int lanes = 64;
  std::vector<std::uint64_t> tx_mask = make_round(n, lanes, 0.15, n, rng);
  std::vector<Payload> payload(n);
  for (NodeId v = 0; v < n; ++v) payload[v] = v;
  const std::vector<ActiveTx> entries = entries_of(tx_mask);
  for (const MediumKind kind : kAllKinds) {
    BatchNetwork dense(g, lanes, CollisionModel::kDetection, kind);
    BatchNetwork active(g, lanes, CollisionModel::kDetection, kind);
    BatchOutcome want, got;
    dense.step(tx_mask, payload, want);
    active.step_lanes_active(entries, payload, got);
    const std::string ctx(to_string(kind));
    EXPECT_EQ(sorted(got.deliveries), sorted(want.deliveries)) << ctx;
    EXPECT_EQ(delivered_masks(got, n), delivered_masks(want, n)) << ctx;
    EXPECT_EQ(active.total_deliveries(), dense.total_deliveries()) << ctx;
    EXPECT_EQ(active.total_transmissions(), dense.total_transmissions())
        << ctx;
    EXPECT_EQ(active.total_collisions(), dense.total_collisions()) << ctx;
    EXPECT_EQ(active.rounds_elapsed(), 1u) << ctx;
  }
}

// active_listeners: every backend agrees on the woken-set size (every
// node with >=1 transmitting neighbour, transmitters included), and
// bitslice's sparse-list and dense batch paths agree with the ground
// truth too.
TEST(MediumSparse, ActiveListenersDiagnostic) {
  util::Rng rng(96);
  const Graph g = graph::gnp(100, 0.08, rng);
  const NodeId n = g.node_count();
  std::vector<NodeId> tx;
  std::vector<Payload> pay;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.bernoulli(0.2)) {
      tx.push_back(v);
      pay.push_back(v);
    }
  }
  // Ground truth: nodes with at least one transmitting neighbour.
  auto woken = [&](auto is_tx) {
    std::uint32_t count = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      if (std::any_of(row.begin(), row.end(), is_tx)) ++count;
    }
    return count;
  };
  std::vector<std::uint8_t> is_tx(n, 0);
  for (const NodeId u : tx) is_tx[u] = 1;
  const std::uint32_t want_active =
      woken([&](NodeId u) { return is_tx[u] != 0; });
  ASSERT_GT(want_active, 0u);

  for (const MediumKind kind : kAllKinds) {
    auto medium = make_medium(kind, g, CollisionModel::kDetection, 3);
    SparseOutcome out;
    medium->resolve(tx, pay, out);
    EXPECT_EQ(out.active_listeners, want_active) << to_string(kind);
    EXPECT_EQ(medium->phase_timers().active_listeners, want_active)
        << to_string(kind);
  }

  // Batch path, sparse-tail shape: the list entry and the dense entry
  // report the same woken set, far below n.
  std::vector<std::uint64_t> tx_mask = make_round(n, 64, 0.6, 3, rng);
  const std::uint32_t want_batch =
      woken([&](NodeId u) { return tx_mask[u] != 0; });
  std::vector<Payload> planes(n, 1);
  BatchOutcome a, b;
  auto bitslice = make_medium(MediumKind::kBitslice, g,
                              CollisionModel::kNoDetection);
  bitslice->resolve_batch_active(entries_of(tx_mask), planes, 64, a);
  bitslice->resolve_batch(tx_mask, planes, 64, b);
  EXPECT_EQ(a.active_listeners, want_batch);
  EXPECT_EQ(b.active_listeners, want_batch);
  EXPECT_LT(a.active_listeners, n);
}

// Phase attribution: list-driven rounds report their time in
// enqueue/drain (+ recover when senders are requested), never in the
// mask-driven traverse/output phases — and mask-driven rounds on the same
// medium the other way round; mask-only rounds skip recovery entirely.
TEST(MediumSparse, PhaseTimersAttribution) {
  util::Rng rng(97);
  const Graph g = graph::gnp(80, 0.1, rng);
  const NodeId n = g.node_count();
  // Sparse-tail shape, so the round takes the scatter path and both the
  // traversal and the output scan run as separate phases.
  std::vector<std::uint64_t> tx_mask = make_round(n, 64, 0.5, 4, rng);
  const std::vector<ActiveTx> entries = entries_of(tx_mask);
  std::vector<Payload> planes(n);
  for (NodeId v = 0; v < n; ++v) planes[v] = v + 1;
  auto medium = make_medium(MediumKind::kBitslice, g,
                            CollisionModel::kNoDetection);
  BatchOutcome out;
  for (int round = 0; round < 3; ++round) {
    medium->resolve_batch_active(entries, planes, 64, out);
  }
  const PhaseTimers& t = medium->phase_timers();
  EXPECT_EQ(t.rounds, 3u);
  EXPECT_EQ(t.rowscan_rounds, 3u);
  EXPECT_EQ(t.idplane_rounds, 0u);
  EXPECT_EQ(t.traverse_ns, 0u);
  EXPECT_EQ(t.output_ns, 0u);
  EXPECT_GT(t.enqueue_ns, 0u);
  EXPECT_GT(t.drain_ns, 0u);
  EXPECT_GT(t.active_listeners, 0u);

  medium->reset_phase_timers();
  EXPECT_EQ(medium->phase_timers().rounds, 0u);
  EXPECT_EQ(medium->phase_timers().active_listeners, 0u);
  medium->resolve_batch_active(entries, planes, 64, out,
                               /*with_senders=*/false);
  EXPECT_EQ(medium->phase_timers().rounds, 1u);
  EXPECT_EQ(medium->phase_timers().rowscan_rounds, 0u);
  EXPECT_EQ(medium->phase_timers().idplane_rounds, 0u);
  EXPECT_EQ(medium->phase_timers().recover_ns, 0u);

  // The same round through the dense entry reports traverse/output only.
  medium->reset_phase_timers();
  medium->resolve_batch(tx_mask, planes, 64, out, /*with_senders=*/false);
  EXPECT_GT(medium->phase_timers().traverse_ns, 0u);
  EXPECT_EQ(medium->phase_timers().enqueue_ns, 0u);
  EXPECT_EQ(medium->phase_timers().drain_ns, 0u);

  // kAuto's constant-plane max-fold shortcut runs on the list path too.
  medium->reset_phase_timers();
  std::vector<Payload> shared(n, 9);
  std::vector<Payload> best(static_cast<std::size_t>(64) * n, kNoPayload);
  BatchOutcome fold_out;
  medium->resolve_batch_max_active(entries, shared, 64,
                                   KnowledgePlanes::lane_major(best, n),
                                   fold_out);
  EXPECT_EQ(medium->phase_timers().constfold_rounds, 1u);
  EXPECT_EQ(medium->phase_timers().rowscan_rounds, 0u);
}

// The frontier and sharded backends are gone: their names are no longer
// media, and the parse error lists the two that remain.
TEST(MediumSparse, ParseAndFactory) {
  for (const char* gone : {"frontier", "sharded"}) {
    EXPECT_THROW(parse_medium_kind(gone), std::invalid_argument);
    try {
      parse_medium_kind(gone);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("scalar | bitslice)"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(kMediumNames.size(), 2u);
  const Graph g = graph::star(5);
  for (const MediumKind kind : kAllKinds) {
    auto medium = make_medium(kind, g, CollisionModel::kNoDetection);
    EXPECT_EQ(medium->name(), to_string(kind));
  }
}

}  // namespace
}  // namespace radiocast::radio
