// Cross-backend differential test for the pluggable radio medium: the
// scalar, bitslice, and sharded backends implement one interference rule
// and must produce identical outcomes — deliveries, collision evidence,
// counters, and (through the Network facade) full RoundOutcomes — on any
// graph, any transmit set, and both collision models.
#include "radio/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "radio/batch_network.hpp"
#include "radio/medium_sharded.hpp"
#include "radio/network.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr MediumKind kAllKinds[] = {MediumKind::kScalar,
                                    MediumKind::kBitslice,
                                    MediumKind::kSharded};

struct NormalizedOutcome {
  std::vector<SparseDelivery> deliveries;
  std::vector<NodeId> collided;
  std::uint32_t transmitter_count = 0;
  std::uint32_t collided_count = 0;

  bool operator==(const NormalizedOutcome&) const = default;
};

NormalizedOutcome normalize(const SparseOutcome& out) {
  NormalizedOutcome n;
  n.deliveries = out.deliveries;
  std::sort(n.deliveries.begin(), n.deliveries.end(),
            [](const SparseDelivery& a, const SparseDelivery& b) {
              return a.node < b.node;
            });
  n.collided = out.collided_nodes;
  std::sort(n.collided.begin(), n.collided.end());
  n.transmitter_count = out.transmitter_count;
  n.collided_count = out.collided_count;
  return n;
}

void check_all_backends(const Graph& g,
                        const std::vector<NodeId>& transmitters,
                        const std::vector<Payload>& tx_payload,
                        CollisionModel model) {
  auto scalar = make_medium(MediumKind::kScalar, g, model);
  SparseOutcome ref_out;
  scalar->resolve(transmitters, tx_payload, ref_out);
  const NormalizedOutcome ref = normalize(ref_out);

  for (const MediumKind kind :
       {MediumKind::kBitslice, MediumKind::kSharded}) {
    auto medium = make_medium(kind, g, model, /*threads=*/3);
    SparseOutcome out;
    medium->resolve(transmitters, tx_payload, out);
    EXPECT_EQ(normalize(out), ref)
        << "backend " << to_string(kind) << " diverged (model="
        << static_cast<int>(model) << ", n=" << g.node_count() << ")";
    if (model == CollisionModel::kNoDetection) {
      EXPECT_TRUE(out.collided_nodes.empty())
          << "collided_nodes must stay empty without collision detection";
    }
  }
}

void check_graph(const Graph& g, util::Rng& rng) {
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    for (const double density : {0.0, 0.05, 0.3, 0.9}) {
      std::vector<NodeId> tx;
      std::vector<Payload> pay;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (rng.bernoulli(density)) {
          tx.push_back(v);
          pay.push_back(1000 + v);
        }
      }
      check_all_backends(g, tx, pay, model);
    }
  }
}

TEST(MediumBackends, DifferentialOnGnp) {
  util::Rng rng(71);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = graph::gnp(150, 0.05, rng);
    check_graph(g, rng);
  }
}

TEST(MediumBackends, DifferentialOnClusterInstances) {
  util::Rng rng(72);
  const Graph cliques = graph::path_of_cliques(10, 8);
  const Graph star = graph::star(50);
  const Graph grid = graph::grid(9, 11);
  check_graph(cliques, rng);
  check_graph(star, rng);
  check_graph(grid, rng);
}

// The facade must expose identical RoundOutcomes regardless of backend —
// including Reception::kCollision marks under the detection model.
TEST(MediumBackends, NetworkFacadeRoundOutcomesMatch) {
  util::Rng rng(73);
  const Graph g = graph::gnp(120, 0.06, rng);
  const NodeId n = g.node_count();
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    for (const double density : {0.1, 0.6}) {
      std::vector<std::uint8_t> transmit(n, 0);
      std::vector<Payload> payload(n, kNoPayload);
      for (NodeId v = 0; v < n; ++v) {
        transmit[v] = rng.bernoulli(density);
        payload[v] = 500 + v;
      }
      Network ref(g, model, MediumKind::kScalar);
      const RoundOutcome want = ref.step(transmit, payload);
      for (const MediumKind kind : kAllKinds) {
        Network net(g, model, kind, /*medium_threads=*/3);
        const RoundOutcome got = net.step(transmit, payload);
        EXPECT_EQ(got.reception, want.reception) << to_string(kind);
        EXPECT_EQ(got.received_payload, want.received_payload)
            << to_string(kind);
        EXPECT_EQ(got.transmitter_count, want.transmitter_count);
        EXPECT_EQ(got.delivered_count, want.delivered_count);
        EXPECT_EQ(got.collided_count, want.collided_count);
      }
    }
  }
}

// Satellite: under kDetection the sparse path must report the same
// collided listeners the dense path marks kCollision.
TEST(MediumBackends, SparseCollidedNodesMatchDensePath) {
  util::Rng rng(74);
  const Graph g = graph::gnp(100, 0.08, rng);
  const NodeId n = g.node_count();
  std::vector<std::uint8_t> transmit(n, 0);
  std::vector<Payload> payload(n, kNoPayload);
  std::vector<NodeId> tx;
  std::vector<Payload> tx_pay;
  for (NodeId v = 0; v < n; ++v) {
    transmit[v] = rng.bernoulli(0.3);
    payload[v] = v;
    if (transmit[v]) {
      tx.push_back(v);
      tx_pay.push_back(v);
    }
  }
  Network dense_net(g, CollisionModel::kDetection);
  const RoundOutcome dense = dense_net.step(transmit, payload);
  Network sparse_net(g, CollisionModel::kDetection);
  SparseOutcome sparse;
  sparse_net.resolve(tx, tx_pay, sparse);

  std::vector<NodeId> want;
  for (NodeId v = 0; v < n; ++v) {
    if (dense.reception[v] == Reception::kCollision) want.push_back(v);
  }
  std::vector<NodeId> got = sparse.collided_nodes;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(sparse.collided_count, dense.collided_count);

  // Without detection the same round must not leak collision identities.
  Network silent_net(g, CollisionModel::kNoDetection);
  SparseOutcome silent;
  silent_net.resolve(tx, tx_pay, silent);
  EXPECT_TRUE(silent.collided_nodes.empty());
  EXPECT_EQ(silent.collided_count, dense.collided_count);
}

TEST(MediumBackends, DuplicateTransmittersFirstPayloadWins) {
  const Graph g = graph::star(6);
  for (const MediumKind kind : kAllKinds) {
    auto medium = make_medium(kind, g, CollisionModel::kNoDetection, 2);
    SparseOutcome out;
    medium->resolve(std::vector<NodeId>{2, 2, 2},
                    std::vector<Payload>{9, 8, 7}, out);
    EXPECT_EQ(out.transmitter_count, 1u) << to_string(kind);
    ASSERT_EQ(out.deliveries.size(), 1u) << to_string(kind);
    EXPECT_EQ(out.deliveries[0].node, 0u);
    EXPECT_EQ(out.deliveries[0].from, 2u);
    EXPECT_EQ(out.deliveries[0].payload, 9u);
  }
}

// Lane-by-lane: the bitslice batch kernel must agree with 64 independent
// scalar rounds (the default per-lane decomposition of resolve_batch).
void check_batch(const Graph& g, CollisionModel model, int lanes,
                 double density, util::Rng& rng) {
  const NodeId n = g.node_count();
  std::vector<std::uint64_t> tx_mask(n, 0);
  std::vector<Payload> payload(n);
  for (NodeId v = 0; v < n; ++v) {
    payload[v] = 2000 + v;
    for (int l = 0; l < lanes; ++l) {
      if (rng.bernoulli(density)) tx_mask[v] |= std::uint64_t{1} << l;
    }
  }

  auto scalar = make_medium(MediumKind::kScalar, g, model);
  BatchOutcome want;
  scalar->resolve_batch(tx_mask, payload, lanes, want);

  for (const MediumKind kind :
       {MediumKind::kBitslice, MediumKind::kSharded}) {
    auto medium = make_medium(kind, g, model, 3);
    BatchOutcome got;
    medium->resolve_batch(tx_mask, payload, lanes, got);

    EXPECT_EQ(got.transmitter_count, want.transmitter_count);
    EXPECT_EQ(got.delivered_count, want.delivered_count);
    EXPECT_EQ(got.collided_count, want.collided_count);

    auto key = [](const BatchDelivery& d) {
      return (static_cast<std::uint64_t>(d.node) << 8) | d.lane;
    };
    auto sort_deliveries = [&](std::vector<BatchDelivery> v) {
      std::sort(v.begin(), v.end(),
                [&](const BatchDelivery& a, const BatchDelivery& b) {
                  return key(a) < key(b);
                });
      return v;
    };
    const auto a = sort_deliveries(want.deliveries);
    const auto b = sort_deliveries(got.deliveries);
    ASSERT_EQ(a.size(), b.size()) << to_string(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].lane, b[i].lane);
      EXPECT_EQ(a[i].from, b[i].from);
      EXPECT_EQ(a[i].payload, b[i].payload);
    }

    // Collision records may be split differently across lanes; compare the
    // OR of the masks per node.
    auto fold = [n](const std::vector<BatchCollision>& cs) {
      std::vector<std::uint64_t> mask(n, 0);
      for (const auto& c : cs) mask[c.node] |= c.lanes;
      return mask;
    };
    EXPECT_EQ(fold(got.collisions), fold(want.collisions))
        << to_string(kind);

    // The aggregate delivered masks must cover exactly the per-delivery
    // list, and each listener must appear at most once.
    auto fold_delivered = [n](const BatchOutcome& o) {
      std::vector<std::uint64_t> mask(n, 0);
      for (const auto& d : o.delivered) {
        EXPECT_EQ(mask[d.node], 0u) << "listener listed twice";
        mask[d.node] = d.lanes;
      }
      return mask;
    };
    auto fold_deliveries = [n](const BatchOutcome& o) {
      std::vector<std::uint64_t> mask(n, 0);
      for (const auto& d : o.deliveries) {
        mask[d.node] |= std::uint64_t{1} << d.lane;
      }
      return mask;
    };
    const auto got_masks = fold_delivered(got);
    EXPECT_EQ(got_masks, fold_delivered(want)) << to_string(kind);
    EXPECT_EQ(got_masks, fold_deliveries(got)) << to_string(kind);

    // Mask-only mode: identical masks and counters, no sender detail.
    BatchOutcome masks_only;
    medium->resolve_batch(tx_mask, payload, lanes, masks_only,
                          /*with_senders=*/false);
    EXPECT_TRUE(masks_only.deliveries.empty());
    EXPECT_EQ(fold_delivered(masks_only), got_masks) << to_string(kind);
    EXPECT_EQ(masks_only.delivered_count, got.delivered_count);
    EXPECT_EQ(masks_only.transmitter_count, got.transmitter_count);
    EXPECT_EQ(masks_only.collided_count, got.collided_count);
  }
}

TEST(MediumBackends, BatchDifferential) {
  util::Rng rng(75);
  const Graph gnp = graph::gnp(130, 0.05, rng);
  const Graph cliques = graph::path_of_cliques(6, 7);
  for (const CollisionModel model :
       {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
    check_batch(gnp, model, 64, 0.15, rng);
    check_batch(gnp, model, 5, 0.4, rng);
    check_batch(cliques, model, 64, 0.3, rng);
  }
}

// Per-lane payload planes: each lane must deliver its own plane's value,
// and the bitslice kernel must agree with the per-lane scalar
// decomposition on every (listener, lane, sender, payload) quadruple.
TEST(MediumBackends, BatchPerLanePayloadPlanes) {
  util::Rng rng(78);
  const Graph g = graph::gnp(110, 0.06, rng);
  const NodeId n = g.node_count();
  const int lanes = 11;
  std::vector<std::uint64_t> tx_mask(n, 0);
  std::vector<Payload> planes(static_cast<std::size_t>(lanes) * n);
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (rng.bernoulli(0.3)) tx_mask[v] |= std::uint64_t{1} << l;
      planes[static_cast<std::size_t>(l) * n + v] =
          10'000 * static_cast<Payload>(l + 1) + v;
    }
  }
  const PayloadPlanes payload = PayloadPlanes::lane_major(planes, n);
  EXPECT_FALSE(payload.lane_invariant());
  EXPECT_EQ(payload.lane_capacity(), lanes);

  auto scalar = make_medium(MediumKind::kScalar, g, CollisionModel::kNoDetection);
  BatchOutcome want;
  scalar->resolve_batch(tx_mask, payload, lanes, want);
  for (const auto& d : want.deliveries) {
    EXPECT_EQ(d.payload,
              10'000 * static_cast<Payload>(d.lane + 1) + d.from)
        << "delivery must carry the sender's own-lane plane value";
  }

  auto bitslice =
      make_medium(MediumKind::kBitslice, g, CollisionModel::kNoDetection);
  BatchOutcome got;
  bitslice->resolve_batch(tx_mask, payload, lanes, got);
  auto sorted = [](std::vector<BatchDelivery> v) {
    std::sort(v.begin(), v.end(),
              [](const BatchDelivery& a, const BatchDelivery& b) {
                return std::tie(a.node, a.lane) < std::tie(b.node, b.lane);
              });
    return v;
  };
  EXPECT_EQ(sorted(got.deliveries), sorted(want.deliveries));
  EXPECT_EQ(got.delivered_count, want.delivered_count);
}

// Satellite: BatchNetwork::step under CollisionModel::kDetection — the
// per-lane collided-listener masks must match what an independent scalar
// Network reports for each lane, and must stay empty without detection.
TEST(MediumBackends, BatchNetworkDetectionCollidedMasks) {
  util::Rng rng(79);
  const Graph g = graph::gnp(100, 0.08, rng);
  const NodeId n = g.node_count();
  const int lanes = 13;
  for (const MediumKind kind : {MediumKind::kBitslice, MediumKind::kScalar}) {
    BatchNetwork bn(g, lanes, CollisionModel::kDetection, kind);
    std::vector<std::uint64_t> tx_mask(n, 0);
    std::vector<Payload> payload(n);
    for (NodeId v = 0; v < n; ++v) {
      payload[v] = v;
      for (int l = 0; l < lanes; ++l) {
        // Lane density grows with l so some lanes are collision-heavy.
        if (rng.bernoulli(0.05 + 0.05 * l)) {
          tx_mask[v] |= std::uint64_t{1} << l;
        }
      }
    }
    BatchOutcome out;
    bn.step(tx_mask, payload, out);

    // Fold collision records (consumers must OR split masks).
    std::vector<std::uint64_t> got(n, 0);
    for (const auto& c : out.collisions) got[c.node] |= c.lanes;

    std::uint64_t total_collided = 0;
    for (int l = 0; l < lanes; ++l) {
      std::vector<NodeId> tx;
      std::vector<Payload> pay;
      for (NodeId v = 0; v < n; ++v) {
        if (tx_mask[v] >> l & 1) {
          tx.push_back(v);
          pay.push_back(payload[v]);
        }
      }
      Network ref(g, CollisionModel::kDetection);
      SparseOutcome so;
      ref.resolve(tx, pay, so);
      ASSERT_EQ(out.collided_count[l], so.collided_count)
          << to_string(kind) << " lane " << l;
      total_collided += so.collided_count;
      std::vector<std::uint64_t> want_bit(n, 0);
      for (const NodeId v : so.collided_nodes) want_bit[v] = 1;
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(got[v] >> l & 1, want_bit[v])
            << to_string(kind) << " lane " << l << " node " << v;
      }
    }
    EXPECT_EQ(bn.total_collisions(), total_collided) << to_string(kind);

    // Without detection, identities must not leak (counters still count).
    BatchNetwork silent(g, lanes, CollisionModel::kNoDetection, kind);
    BatchOutcome silent_out;
    silent.step(tx_mask, payload, silent_out);
    EXPECT_TRUE(silent_out.collisions.empty()) << to_string(kind);
    EXPECT_EQ(silent.total_collisions(), total_collided) << to_string(kind);
  }
}

// Satellite: RADIOCAST_SHARD_THREADS overrides the sharded backend's
// hardware-derived default worker count (CI hosts report 1 core).
TEST(MediumBackends, ShardThreadsEnvOverride) {
  util::Rng rng(80);
  const Graph g = graph::gnp(60, 0.1, rng);
  ASSERT_EQ(setenv("RADIOCAST_SHARD_THREADS", "5", 1), 0);
  {
    ShardedMedium m(g, CollisionModel::kNoDetection, /*threads=*/0);
    EXPECT_EQ(m.shard_count(), 5);
    // An explicit thread count still wins over the environment.
    ShardedMedium explicit_m(g, CollisionModel::kNoDetection, 2);
    EXPECT_EQ(explicit_m.shard_count(), 2);
  }
  unsetenv("RADIOCAST_SHARD_THREADS");
}

TEST(MediumBackends, BatchNetworkCountersMatchScalarTotals) {
  util::Rng rng(76);
  const Graph g = graph::gnp(90, 0.07, rng);
  const NodeId n = g.node_count();
  const int lanes = 17;

  BatchNetwork bn(g, lanes);
  std::vector<Network> nets;
  nets.reserve(lanes);
  for (int l = 0; l < lanes; ++l) nets.emplace_back(g);

  std::vector<std::uint64_t> tx_mask(n);
  std::vector<Payload> payload(n);
  BatchOutcome out;
  for (int round = 0; round < 8; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      payload[v] = v;
      tx_mask[v] = 0;
      for (int l = 0; l < lanes; ++l) {
        if (rng.bernoulli(0.2)) tx_mask[v] |= std::uint64_t{1} << l;
      }
    }
    bn.step(tx_mask, payload, out);
    for (int l = 0; l < lanes; ++l) {
      std::vector<NodeId> tx;
      std::vector<Payload> pay;
      for (NodeId v = 0; v < n; ++v) {
        if (tx_mask[v] >> l & 1) {
          tx.push_back(v);
          pay.push_back(payload[v]);
        }
      }
      SparseOutcome so;
      nets[static_cast<std::size_t>(l)].resolve(tx, pay, so);
    }
  }
  std::uint64_t want_tx = 0, want_delivered = 0, want_collided = 0;
  for (const auto& net : nets) {
    want_tx += net.total_transmissions();
    want_delivered += net.total_deliveries();
    want_collided += net.total_collisions();
  }
  EXPECT_EQ(bn.total_transmissions(), want_tx);
  EXPECT_EQ(bn.total_deliveries(), want_delivered);
  EXPECT_EQ(bn.total_collisions(), want_collided);
  EXPECT_EQ(bn.rounds_elapsed(), 8u);
}

// replicate_batched must see the exact per-replication seeds replicate
// hands out, merge in replication order, and be --threads invariant.
TEST(MediumBackends, ReplicateBatchedMatchesReplicate) {
  const int reps = 23;
  const std::uint64_t base_seed = 99;
  auto metric = [](int rep, std::uint64_t seed) {
    return std::vector<double>{static_cast<double>(seed % 1000),
                               static_cast<double>(rep)};
  };
  sim::Runner serial(1);
  const auto want = serial.replicate(reps, base_seed, 2, metric);
  for (const int threads : {1, 3}) {
    sim::Runner runner(threads);
    const auto got = runner.replicate_batched(
        reps, base_seed, 2, 7,
        [&](int first_rep, const std::vector<std::uint64_t>& seeds) {
          std::vector<std::vector<double>> lanes;
          for (std::size_t l = 0; l < seeds.size(); ++l) {
            lanes.push_back(metric(first_rep + static_cast<int>(l),
                                   seeds[l]));
          }
          return lanes;
        });
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(got[m].count(), want[m].count());
      EXPECT_DOUBLE_EQ(got[m].mean(), want[m].mean());
    }
  }
}

// Tentpole differential: sender recovery must be a pure cost knob. For
// every backend, both collision models, and 1/7/64 lanes, kRowScan and
// kIdPlanes (and kAuto) must produce identical deliveries, delivered
// masks, best[] planes, and tallies. Per-listener delivery order is
// normalized (the row scan emits sender-major, the id planes lane-major).
TEST(MediumBackends, RecoveryStrategyDifferential) {
  util::Rng rng(81);
  const Graph gnp = graph::gnp(140, 0.06, rng);
  const Graph star = graph::star(60);
  constexpr RecoveryStrategy kStrategies[] = {RecoveryStrategy::kRowScan,
                                              RecoveryStrategy::kIdPlanes,
                                              RecoveryStrategy::kAuto};
  auto sorted = [](std::vector<BatchDelivery> v) {
    std::sort(v.begin(), v.end(),
              [](const BatchDelivery& a, const BatchDelivery& b) {
                return std::tie(a.node, a.lane) < std::tie(b.node, b.lane);
              });
    return v;
  };
  for (const Graph* g : {&gnp, &star}) {
    const NodeId n = g->node_count();
    for (const CollisionModel model :
         {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
      for (const int lanes : {1, 7, 64}) {
        // Lane-major planes exercise real per-lane payload recovery; a
        // second round with one shared constant plane exercises kAuto's
        // no-identification fold shortcut.
        std::vector<std::uint64_t> tx_mask(n, 0);
        std::vector<Payload> planes(static_cast<std::size_t>(lanes) * n);
        for (NodeId v = 0; v < n; ++v) {
          for (int l = 0; l < lanes; ++l) {
            if (rng.bernoulli(0.25)) tx_mask[v] |= std::uint64_t{1} << l;
            planes[static_cast<std::size_t>(l) * n + v] =
                7'000 * static_cast<Payload>(l + 1) + v;
          }
        }
        const std::vector<Payload> shared(n, 42);
        for (const MediumKind kind : kAllKinds) {
          BatchOutcome want;
          std::vector<Payload> want_best(
              static_cast<std::size_t>(lanes) * n, kNoPayload);
          bool have_want = false;
          for (const RecoveryStrategy strategy : kStrategies) {
            auto medium = make_medium(kind, *g, model, 3, strategy);
            EXPECT_EQ(medium->recovery_strategy(), strategy);
            BatchOutcome got;
            medium->resolve_batch(
                tx_mask, PayloadPlanes::lane_major(planes, n), lanes, got);
            std::vector<Payload> got_best(
                static_cast<std::size_t>(lanes) * n, kNoPayload);
            BatchOutcome fold_out;
            medium->resolve_batch_max(
                tx_mask, PayloadPlanes::lane_major(planes, n), lanes,
                KnowledgePlanes::lane_major(got_best, n), fold_out);
            BatchOutcome shared_out;
            std::vector<Payload> shared_best(
                static_cast<std::size_t>(lanes) * n, kNoPayload);
            medium->resolve_batch_max(
                tx_mask, shared, lanes,
                KnowledgePlanes::lane_major(shared_best, n), shared_out);
            if (!have_want) {
              want = got;
              want.deliveries = sorted(want.deliveries);
              want_best = got_best;
              have_want = true;
              // Cross-check the fold against the recovered deliveries.
              std::vector<Payload> from_deliveries(
                  static_cast<std::size_t>(lanes) * n, kNoPayload);
              for (const auto& d : got.deliveries) {
                Payload& b =
                    from_deliveries[static_cast<std::size_t>(d.lane) * n +
                                    d.node];
                if (b == kNoPayload || d.payload > b) b = d.payload;
              }
              EXPECT_EQ(got_best, from_deliveries) << to_string(kind);
              for (const auto& d : shared_out.delivered) {
                for (std::uint64_t hit = d.lanes; hit != 0; hit &= hit - 1) {
                  const int l = std::countr_zero(hit);
                  EXPECT_EQ(
                      shared_best[static_cast<std::size_t>(l) * n + d.node],
                      42u);
                }
              }
              continue;
            }
            const std::string ctx = std::string(to_string(kind)) + "/" +
                                    std::string(to_string(strategy)) +
                                    " lanes=" + std::to_string(lanes);
            EXPECT_EQ(sorted(got.deliveries), want.deliveries) << ctx;
            auto masks = [n](const BatchOutcome& o) {
              std::vector<std::uint64_t> m(n, 0);
              for (const auto& d : o.delivered) m[d.node] = d.lanes;
              return m;
            };
            EXPECT_EQ(masks(got), masks(want)) << ctx;
            EXPECT_EQ(got.transmitter_count, want.transmitter_count) << ctx;
            EXPECT_EQ(got.delivered_count, want.delivered_count) << ctx;
            EXPECT_EQ(got.collided_count, want.collided_count) << ctx;
            EXPECT_EQ(got_best, want_best) << ctx;  // byte-identical planes
          }
        }
      }
    }
  }
}

// The bitslice kernel must actually take both recovery paths when pinned
// (the differential above would pass vacuously if a knob were ignored).
TEST(MediumBackends, RecoveryStrategyPinsThePath) {
  util::Rng rng(82);
  const Graph g = graph::gnp(120, 0.08, rng);
  const NodeId n = g.node_count();
  std::vector<std::uint64_t> tx_mask(n, 0);
  std::vector<Payload> planes(static_cast<std::size_t>(64) * n, 5);
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < 64; ++l) {
      if (rng.bernoulli(0.2)) tx_mask[v] |= std::uint64_t{1} << l;
    }
  }
  for (const RecoveryStrategy strategy :
       {RecoveryStrategy::kRowScan, RecoveryStrategy::kIdPlanes}) {
    auto medium = make_medium(MediumKind::kBitslice, g,
                              CollisionModel::kNoDetection, 0, strategy);
    BatchOutcome out;
    for (int round = 0; round < 5; ++round) {
      medium->resolve_batch(tx_mask, PayloadPlanes::lane_major(planes, n),
                            64, out);
    }
    const PhaseTimers& t = medium->phase_timers();
    EXPECT_EQ(t.rounds, 5u);
    if (strategy == RecoveryStrategy::kRowScan) {
      EXPECT_EQ(t.rowscan_rounds, 5u);
      EXPECT_EQ(t.idplane_rounds, 0u);
    } else {
      EXPECT_EQ(t.idplane_rounds, 5u);
      EXPECT_EQ(t.rowscan_rounds, 0u);
    }
    medium->reset_phase_timers();
    EXPECT_EQ(medium->phase_timers().rounds, 0u);
  }
  // kAuto's constant-plane fold shortcut must be counted as neither.
  auto medium = make_medium(MediumKind::kBitslice, g,
                            CollisionModel::kNoDetection, 0,
                            RecoveryStrategy::kAuto);
  const std::vector<Payload> shared(n, 9);
  std::vector<Payload> best(static_cast<std::size_t>(64) * n, kNoPayload);
  BatchOutcome out;
  medium->resolve_batch_max(tx_mask, shared, 64,
                            KnowledgePlanes::lane_major(best, n), out);
  EXPECT_EQ(medium->phase_timers().constfold_rounds, 1u);
  EXPECT_EQ(medium->phase_timers().rowscan_rounds, 0u);
  EXPECT_EQ(medium->phase_timers().idplane_rounds, 0u);
}

// Regression: the single-lane resolve() facade must not leak a
// transmitter's payload into later rounds, so repeated rounds with
// duplicate transmitter entries keep delivering each round's own
// (first-occurrence) payload.
TEST(MediumBackends, DuplicateTransmittersRepeatedRoundsStayFresh) {
  const Graph g = graph::star(6);
  for (const MediumKind kind : kAllKinds) {
    auto medium = make_medium(kind, g, CollisionModel::kNoDetection, 2);
    for (Payload round = 0; round < 4; ++round) {
      SparseOutcome out;
      // Duplicates every round, with round-varying payloads: first
      // occurrence wins, and nothing from earlier rounds survives.
      medium->resolve(std::vector<NodeId>{2, 2, 2},
                      std::vector<Payload>{100 + round, 7, 8}, out);
      EXPECT_EQ(out.transmitter_count, 1u) << to_string(kind);
      ASSERT_EQ(out.deliveries.size(), 1u) << to_string(kind);
      EXPECT_EQ(out.deliveries[0].from, 2u);
      EXPECT_EQ(out.deliveries[0].payload, 100 + round)
          << to_string(kind) << " round " << round;
      // Alternate transmitter between rounds so a stale payload for node 2
      // would be observable if the epilogue ever stopped clearing it.
      SparseOutcome other;
      medium->resolve(std::vector<NodeId>{3}, std::vector<Payload>{55}, other);
      ASSERT_EQ(other.deliveries.size(), 1u) << to_string(kind);
      EXPECT_EQ(other.deliveries[0].payload, 55u);
    }
  }
}

// resolve() with a transmitter id >= n must throw on every backend (it
// used to index per-node arrays unchecked), and the medium must stay
// usable: the next valid round resolves exactly like a fresh medium's.
TEST(MediumBackends, OutOfRangeTransmitterThrowsAndMediumRecovers) {
  util::Rng rng(83);
  const Graph g = graph::gnp(50, 0.1, rng);
  const NodeId n = g.node_count();
  std::vector<NodeId> tx;
  std::vector<Payload> pay;
  for (NodeId v = 0; v < n; v += 7) {
    tx.push_back(v);
    pay.push_back(200 + v);
  }
  for (const MediumKind kind : kAllKinds) {
    for (const CollisionModel model :
         {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
      auto medium = make_medium(kind, g, model, 2);
      SparseOutcome out;
      // The bad id last, so valid entries before it have touched state.
      std::vector<NodeId> bad_tx = tx;
      std::vector<Payload> bad_pay = pay;
      bad_tx.push_back(n + 1);
      bad_pay.push_back(7);
      EXPECT_THROW(medium->resolve(bad_tx, bad_pay, out), std::invalid_argument)
          << to_string(kind);
      Network net(g, model, kind, 2);
      EXPECT_THROW(net.resolve(std::vector<NodeId>{n}, std::vector<Payload>{7},
                               out),
                   std::invalid_argument)
          << to_string(kind);
      EXPECT_EQ(net.rounds_elapsed(), 0u) << to_string(kind);

      auto fresh = make_medium(kind, g, model, 2);
      SparseOutcome want;
      fresh->resolve(tx, pay, want);
      medium->resolve(tx, pay, out);
      EXPECT_EQ(normalize(out), normalize(want)) << to_string(kind);
    }
  }
}

TEST(MediumBackends, ParseRecoveryStrategy) {
  EXPECT_EQ(parse_recovery_strategy("auto"), RecoveryStrategy::kAuto);
  EXPECT_EQ(parse_recovery_strategy("rowscan"), RecoveryStrategy::kRowScan);
  EXPECT_EQ(parse_recovery_strategy("idplanes"),
            RecoveryStrategy::kIdPlanes);
  EXPECT_THROW(parse_recovery_strategy("psychic"), std::invalid_argument);
  EXPECT_EQ(to_string(RecoveryStrategy::kIdPlanes), "idplanes");
}

TEST(MediumBackends, ParseKind) {
  EXPECT_EQ(parse_medium_kind("scalar"), MediumKind::kScalar);
  EXPECT_EQ(parse_medium_kind("bitslice"), MediumKind::kBitslice);
  EXPECT_EQ(parse_medium_kind("sharded"), MediumKind::kSharded);
  EXPECT_THROW(parse_medium_kind("quantum"), std::invalid_argument);
  EXPECT_EQ(to_string(MediumKind::kBitslice), "bitslice");
}

}  // namespace
}  // namespace radiocast::radio
