// Differential tests for the transmitter-list round: bitslice's
// resolve_lanes builds every round from the ActiveTx list (no 0..n scan)
// and must be byte-identical to the scalar reference on per-lane senders,
// delivered masks, best[] planes, and tallies — across both collision
// models, 1/7/64 lanes, and both dense rounds and the sparse-tail rounds
// the list walk exists for. Also covered: the lazily-cleared staging mask
// across repeated rounds (stale lanes are a real hazard), split and
// duplicate entries, the single-lane resolve() facade that rides the same
// fold, the active_listeners cost diagnostic, and the phase attribution
// of list rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "lane_deliveries.hpp"
#include "radio/batch_network.hpp"
#include "radio/medium.hpp"
#include "radio/network.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;

using test_util::active_list;
using test_util::by_listener;
using test_util::lane_deliveries;
using test_util::lane_masks;

constexpr MediumKind kAllKinds[] = {MediumKind::kScalar,
                                    MediumKind::kBitslice};

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

/// Runs one round on bitslice (3 workers) and checks every observable
/// against the scalar reference: per-lane senders, masks and counters
/// through an id-plane fold, and the fold of the node-major `planes`.
void check_against_scalar(const Graph& g, CollisionModel model, int lanes,
                          std::span<const ActiveTx> tx,
                          std::span<const Payload> planes) {
  const NodeId n = g.node_count();
  const PayloadPlanes payload = PayloadPlanes::node_major(planes, n);
  const std::string ctx = "lanes=" + std::to_string(lanes) +
                          " model=" + std::to_string(static_cast<int>(model));
  auto scalar = make_medium(MediumKind::kScalar, g, model);
  auto bitslice = make_medium(MediumKind::kBitslice, g, model, /*threads=*/3);

  BatchOutcome want, got;
  const auto want_records = by_listener(lane_deliveries(*scalar, tx, lanes, want));
  const auto got_records = by_listener(lane_deliveries(*bitslice, tx, lanes, got));
  EXPECT_EQ(got.transmitter_count, want.transmitter_count) << ctx;
  EXPECT_EQ(got.delivered_count, want.delivered_count) << ctx;
  EXPECT_EQ(got.collided_count, want.collided_count) << ctx;
  EXPECT_EQ(got_records, want_records) << ctx;
  EXPECT_EQ(lane_masks(got.delivered, n), lane_masks(want.delivered, n)) << ctx;
  EXPECT_EQ(lane_masks(got.collisions, n), lane_masks(want.collisions, n))
      << ctx;
  if (model == CollisionModel::kNoDetection) {
    EXPECT_TRUE(got.collisions.empty()) << ctx;
  }

  std::vector<Payload> want_best(static_cast<std::size_t>(lanes) * n,
                                 kNoPayload);
  std::vector<Payload> got_best = want_best;
  BatchOutcome want_fold, got_fold;
  scalar->resolve_lanes(tx, payload, lanes,
                        KnowledgePlanes::node_major(want_best, n), want_fold);
  bitslice->resolve_lanes(tx, payload, lanes,
                          KnowledgePlanes::node_major(got_best, n), got_fold);
  EXPECT_EQ(got_best, want_best) << ctx;  // byte-identical planes
  EXPECT_EQ(lane_masks(got_fold.delivered, n), lane_masks(want.delivered, n))
      << ctx;
}

// Tentpole differential: dense rounds (every node may transmit) and
// sparse-tail rounds (a handful of sources in a large quiet graph) across
// both collision models and 1/7/64 lanes, on GnP and cluster topologies —
// bitslice's list round against the scalar reference.
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
              planes[static_cast<std::size_t>(v) * lanes + l] =
                  5'000 * static_cast<Payload>(l + 1) + v;
            }
          }
          check_against_scalar(*g, model, lanes, active_list(tx_mask),
                               planes);
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
    auto run_round = [&](const std::vector<std::uint64_t>& tx_mask) {
      auto scalar = make_medium(MediumKind::kScalar, g, model);
      const std::vector<ActiveTx> tx = active_list(tx_mask);
      BatchOutcome want, got;
      const auto want_records = lane_deliveries(*scalar, tx, 64, want);
      const auto got_records = lane_deliveries(*bitslice, tx, 64, got);
      EXPECT_EQ(by_listener(got_records), by_listener(want_records));
      EXPECT_EQ(lane_masks(got.delivered, n), lane_masks(want.delivered, n));
      EXPECT_EQ(lane_masks(got.collisions, n), lane_masks(want.collisions, n));
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

// A transmitter's lane mask may arrive split across duplicate entries
// (their masks OR together) and padded with zero-mask entries for silent
// nodes; on every backend that round must equal the one-entry-per-node
// list. An out-of-range node must throw — here after valid entries have
// already been staged — and leave the medium usable.
TEST(MediumSparse, SplitAndDuplicateEntriesMatchOneEntryPerNode) {
  util::Rng rng(94);
  const Graph g = graph::gnp(110, 0.07, rng);
  const NodeId n = g.node_count();
  const int lanes = 64;
  std::vector<Payload> planes(n);
  for (NodeId v = 0; v < n; ++v) planes[v] = 700 + v;
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    std::vector<std::uint64_t> tx_mask = make_round(n, lanes, 0.1, n, rng);
    const std::vector<ActiveTx> once = active_list(tx_mask);
    std::vector<ActiveTx> entries;
    for (NodeId v = 0; v < n; ++v) {
      if (tx_mask[v] == 0) {
        entries.push_back({v, 0});  // silent node, listed anyway
        continue;
      }
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
      const auto want_records = lane_deliveries(*medium, once, lanes, want);
      const auto got_records = lane_deliveries(*medium, entries, lanes, got);
      const std::string ctx(to_string(kind));
      EXPECT_EQ(got.transmitter_count, want.transmitter_count) << ctx;
      EXPECT_EQ(got.delivered_count, want.delivered_count) << ctx;
      EXPECT_EQ(got.collided_count, want.collided_count) << ctx;
      EXPECT_EQ(got_records, want_records) << ctx;
      EXPECT_EQ(got.delivered, want.delivered) << ctx;
      EXPECT_EQ(lane_masks(got.collisions, n), lane_masks(want.collisions, n))
          << ctx;

      std::vector<Payload> want_best(static_cast<std::size_t>(lanes) * n,
                                     kNoPayload);
      std::vector<Payload> got_best = want_best;
      BatchOutcome fold_want, fold_got;
      medium->resolve_lanes(once, planes, lanes,
                            KnowledgePlanes::node_major(want_best, n),
                            fold_want);
      medium->resolve_lanes(entries, planes, lanes,
                            KnowledgePlanes::node_major(got_best, n),
                            fold_got);
      EXPECT_EQ(got_best, want_best) << ctx;

      std::vector<ActiveTx> bad = entries;
      bad.push_back({n, 1});
      BatchOutcome bad_out;
      EXPECT_THROW(medium->resolve_lanes(bad, planes, lanes,
                                         KnowledgePlanes::node_major(got_best, n),
                                         bad_out),
                   std::invalid_argument)
          << ctx;
      BatchOutcome after;
      EXPECT_EQ(lane_deliveries(*medium, entries, lanes, after), want_records)
          << ctx;
      EXPECT_EQ(after.delivered, want.delivered) << ctx;
      EXPECT_EQ(after.transmitter_count, want.transmitter_count) << ctx;
    }
  }
}

// LaneExecutor wiring: BatchNetwork::step_lanes must produce the medium's
// own outcome and advance its per-lane counters by that round's tallies,
// on every backend.
TEST(MediumSparse, BatchNetworkStepLanesMatchesMedium) {
  util::Rng rng(95);
  const Graph g = graph::gnp(90, 0.08, rng);
  const NodeId n = g.node_count();
  const int lanes = 64;
  const std::vector<ActiveTx> entries =
      active_list(make_round(n, lanes, 0.15, n, rng));
  std::vector<Payload> payload(n);
  for (NodeId v = 0; v < n; ++v) payload[v] = v;
  for (const MediumKind kind : kAllKinds) {
    auto medium = make_medium(kind, g, CollisionModel::kDetection);
    BatchNetwork bn(g, lanes, CollisionModel::kDetection, kind);
    std::vector<Payload> want_best(static_cast<std::size_t>(lanes) * n,
                                   kNoPayload);
    std::vector<Payload> got_best = want_best;
    BatchOutcome want, got;
    medium->resolve_lanes(entries, payload, lanes,
                          KnowledgePlanes::node_major(want_best, n), want);
    bn.step_lanes(entries, payload, lanes,
                  KnowledgePlanes::node_major(got_best, n), got);
    const std::string ctx(to_string(kind));
    EXPECT_EQ(got_best, want_best) << ctx;
    EXPECT_EQ(got.delivered, want.delivered) << ctx;
    std::uint64_t tx = 0, delivered = 0, collided = 0;
    for (int l = 0; l < lanes; ++l) {
      tx += want.transmitter_count[l];
      delivered += want.delivered_count[l];
      collided += want.collided_count[l];
    }
    EXPECT_EQ(bn.total_transmissions(), tx) << ctx;
    EXPECT_EQ(bn.total_deliveries(), delivered) << ctx;
    EXPECT_EQ(bn.total_collisions(), collided) << ctx;
    EXPECT_EQ(bn.rounds_elapsed(), 1u) << ctx;
  }
}

// active_listeners: every backend agrees on the woken-set size (every
// node with >=1 transmitting neighbour, transmitters included), and
// bitslice's batch round agrees with the ground truth too, whether the
// list names only the transmitters or all n nodes.
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

  // Batch path, sparse-tail shape: the transmitters-only list and the
  // n-entry list (zero masks for silent nodes) report the same woken set,
  // far below n.
  std::vector<std::uint64_t> tx_mask = make_round(n, 64, 0.6, 3, rng);
  const std::uint32_t want_batch =
      woken([&](NodeId u) { return tx_mask[u] != 0; });
  std::vector<ActiveTx> all_n;
  for (NodeId v = 0; v < n; ++v) all_n.push_back({v, tx_mask[v]});
  std::vector<Payload> planes(n, 1);
  std::vector<Payload> best(static_cast<std::size_t>(64) * n, kNoPayload);
  const KnowledgePlanes view = KnowledgePlanes::node_major(best, n);
  BatchOutcome a, b;
  auto bitslice = make_medium(MediumKind::kBitslice, g,
                              CollisionModel::kNoDetection);
  bitslice->resolve_lanes(active_list(tx_mask), planes, 64, view, a);
  bitslice->resolve_lanes(all_n, planes, 64, view, b);
  EXPECT_EQ(a.active_listeners, want_batch);
  EXPECT_EQ(b.active_listeners, want_batch);
  EXPECT_LT(a.active_listeners, n);
}

// Phase attribution: every round enters as a list and reports its time in
// traverse/output (+ recover when senders are identified); enqueue/drain
// stay 0. kAuto's constant-plane fold skips sender recovery.
TEST(MediumSparse, PhaseTimersAttribution) {
  util::Rng rng(97);
  const Graph g = graph::gnp(80, 0.1, rng);
  const NodeId n = g.node_count();
  // Sparse-tail shape, so the round takes the scatter path and both the
  // traversal and the output scan run as separate phases.
  const std::vector<ActiveTx> entries =
      active_list(make_round(n, 64, 0.5, 4, rng));
  std::vector<Payload> planes(n);
  for (NodeId v = 0; v < n; ++v) planes[v] = v + 1;
  std::vector<Payload> best(static_cast<std::size_t>(64) * n, kNoPayload);
  const KnowledgePlanes view = KnowledgePlanes::node_major(best, n);
  auto medium = make_medium(MediumKind::kBitslice, g,
                            CollisionModel::kNoDetection);
  BatchOutcome out;
  for (int round = 0; round < 3; ++round) {
    medium->resolve_lanes(entries, planes, 64, view, out);
  }
  const PhaseTimers& t = medium->phase_timers();
  EXPECT_EQ(t.rounds, 3u);
  EXPECT_EQ(t.rowscan_rounds, 3u);
  EXPECT_EQ(t.idplane_rounds, 0u);
  EXPECT_GT(t.traverse_ns, 0u);
  EXPECT_GT(t.output_ns, 0u);
  EXPECT_EQ(t.enqueue_ns, 0u);
  EXPECT_EQ(t.drain_ns, 0u);
  EXPECT_GT(t.active_listeners, 0u);

  // The single-instance facade rides the same round.
  medium->reset_phase_timers();
  EXPECT_EQ(medium->phase_timers().rounds, 0u);
  EXPECT_EQ(medium->phase_timers().active_listeners, 0u);
  SparseOutcome sparse;
  medium->resolve(std::vector<NodeId>{0, 1}, std::vector<Payload>{5, 6},
                  sparse);
  EXPECT_EQ(medium->phase_timers().rounds, 1u);
  EXPECT_EQ(medium->phase_timers().rowscan_rounds, 1u);
  EXPECT_EQ(medium->phase_timers().enqueue_ns, 0u);
  EXPECT_EQ(medium->phase_timers().drain_ns, 0u);

  // kAuto's constant-plane max-fold: no sender recovery, no row scan.
  medium->reset_phase_timers();
  const std::vector<Payload> shared(n, 9);
  medium->resolve_lanes(entries, shared, 64, view, out);
  EXPECT_EQ(medium->phase_timers().constfold_rounds, 1u);
  EXPECT_EQ(medium->phase_timers().rowscan_rounds, 0u);
  EXPECT_GT(medium->phase_timers().traverse_ns, 0u);
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
