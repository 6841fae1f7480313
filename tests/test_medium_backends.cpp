// Cross-backend differential test for the pluggable radio medium: the
// scalar and bitslice backends — bitslice both serial and with a 4-worker
// gather pool — implement one interference rule and must produce identical
// outcomes — deliveries, collision evidence, counters, and (through the
// Network facade) full RoundOutcomes — on any graph, any transmit set, and
// both collision models.
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
#include "lane_deliveries.hpp"
#include "radio/batch_network.hpp"
#include "radio/medium_bitslice.hpp"
#include "radio/network.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;
using test_util::active_list;
using test_util::by_listener;
using test_util::lane_deliveries;
using test_util::lane_masks;

/// One medium under test: a backend plus its worker count.
struct Backend {
  MediumKind kind;
  int threads;

  std::unique_ptr<Medium> make(
      const Graph& g, CollisionModel model,
      RecoveryStrategy recovery = RecoveryStrategy::kAuto) const {
    return make_medium(kind, g, model, threads, recovery);
  }
  std::string name() const {
    return std::string(to_string(kind)) + "/w" + std::to_string(threads);
  }
};

constexpr Backend kBatchBackends[] = {{MediumKind::kBitslice, 1},
                                      {MediumKind::kBitslice, 4}};
constexpr Backend kAllBackends[] = {{MediumKind::kScalar, 1},
                                    {MediumKind::kBitslice, 1},
                                    {MediumKind::kBitslice, 4}};

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

  for (const Backend& backend : kBatchBackends) {
    auto medium = backend.make(g, model);
    SparseOutcome out;
    medium->resolve(transmitters, tx_payload, out);
    EXPECT_EQ(normalize(out), ref)
        << "backend " << backend.name() << " diverged (model="
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
      for (const Backend& backend : kAllBackends) {
        Network net(g, model, backend.kind, backend.threads);
        const RoundOutcome got = net.step(transmit, payload);
        EXPECT_EQ(got.reception, want.reception) << backend.name();
        EXPECT_EQ(got.received_payload, want.received_payload)
            << backend.name();
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
  for (const Backend& backend : kAllBackends) {
    auto medium = backend.make(g, CollisionModel::kNoDetection);
    SparseOutcome out;
    medium->resolve(std::vector<NodeId>{2, 2, 2},
                    std::vector<Payload>{9, 8, 7}, out);
    EXPECT_EQ(out.transmitter_count, 1u) << backend.name();
    ASSERT_EQ(out.deliveries.size(), 1u) << backend.name();
    EXPECT_EQ(out.deliveries[0].node, 0u);
    EXPECT_EQ(out.deliveries[0].from, 2u);
    EXPECT_EQ(out.deliveries[0].payload, 9u);
  }
}

// Lane-by-lane: the bitslice batch kernel must agree with 64 independent
// scalar rounds (scalar's per-lane decomposition of resolve_lanes) on every
// (listener, lane, sender) triple, the delivered and collision masks and
// the counters — and a constant-plane fold (no sender recovery) must
// produce the same masks and counters.
void check_batch(const Graph& g, CollisionModel model, int lanes,
                 double density, util::Rng& rng) {
  const NodeId n = g.node_count();
  std::vector<std::uint64_t> tx_mask(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (rng.bernoulli(density)) tx_mask[v] |= std::uint64_t{1} << l;
    }
  }
  const std::vector<ActiveTx> tx = active_list(tx_mask);

  auto scalar = make_medium(MediumKind::kScalar, g, model);
  BatchOutcome want;
  const auto want_records = by_listener(lane_deliveries(*scalar, tx, lanes, want));

  for (const Backend& backend : kBatchBackends) {
    auto medium = backend.make(g, model);
    const std::string kind = backend.name();
    BatchOutcome got;
    const auto got_records = lane_deliveries(*medium, tx, lanes, got);

    EXPECT_EQ(got.transmitter_count, want.transmitter_count);
    EXPECT_EQ(got.delivered_count, want.delivered_count);
    EXPECT_EQ(got.collided_count, want.collided_count);
    EXPECT_EQ(by_listener(got_records), want_records) << kind;

    // Collision records may be split differently across lanes; compare the
    // OR of the masks per node.
    EXPECT_EQ(lane_masks(got.collisions, n), lane_masks(want.collisions, n))
        << kind;

    // The aggregate delivered masks must cover exactly the per-delivery
    // records, and each listener must appear at most once.
    auto fold_delivered = [n](const BatchOutcome& o) {
      std::vector<std::uint64_t> mask(n, 0);
      for (const auto& d : o.delivered) {
        EXPECT_EQ(mask[d.node], 0u) << "listener listed twice";
        mask[d.node] = d.lanes;
      }
      return mask;
    };
    std::vector<std::uint64_t> from_records(n, 0);
    for (const auto& d : got_records) {
      from_records[d.node] |= std::uint64_t{1} << d.lane;
    }
    const auto got_masks = fold_delivered(got);
    EXPECT_EQ(got_masks, fold_delivered(want)) << kind;
    EXPECT_EQ(got_masks, from_records) << kind;

    // Constant-plane fold: identical masks and counters, every delivered
    // lane holding the constant.
    const std::vector<Payload> constant(n, 42);
    std::vector<Payload> best(static_cast<std::size_t>(lanes) * n, kNoPayload);
    const KnowledgePlanes view = KnowledgePlanes::node_major(best, n);
    BatchOutcome const_out;
    medium->resolve_lanes(tx, constant, lanes, view, const_out);
    EXPECT_EQ(fold_delivered(const_out), got_masks) << kind;
    EXPECT_EQ(const_out.delivered_count, got.delivered_count);
    EXPECT_EQ(const_out.transmitter_count, got.transmitter_count);
    EXPECT_EQ(const_out.collided_count, got.collided_count);
    for (const auto& d : got_records) {
      EXPECT_EQ(view.at(d.lane, d.node), 42u) << kind;
    }
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

// Per-lane payload planes: each lane must fold its own plane's value from
// its unique sender, and the bitslice kernel must agree with the per-lane
// scalar decomposition on every (listener, lane) plane word.
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
      planes[static_cast<std::size_t>(v) * lanes + l] =
          10'000 * static_cast<Payload>(l + 1) + v;
    }
  }
  const std::vector<ActiveTx> tx = active_list(tx_mask);
  const PayloadPlanes payload = PayloadPlanes::node_major(planes, n);
  EXPECT_FALSE(payload.lane_invariant());
  EXPECT_EQ(payload.lane_capacity(), lanes);

  auto fold = [&](MediumKind kind, BatchOutcome& out) {
    auto medium = make_medium(kind, g, CollisionModel::kNoDetection);
    std::vector<Payload> best(static_cast<std::size_t>(lanes) * n,
                              kNoPayload);
    medium->resolve_lanes(tx, payload, lanes,
                          KnowledgePlanes::node_major(best, n), out);
    return best;
  };
  BatchOutcome want, got;
  const auto want_best = fold(MediumKind::kScalar, want);
  auto ids = make_medium(MediumKind::kScalar, g, CollisionModel::kNoDetection);
  BatchOutcome ids_out;
  for (const auto& d : lane_deliveries(*ids, tx, lanes, ids_out)) {
    EXPECT_EQ(want_best[static_cast<std::size_t>(d.node) * lanes + d.lane],
              10'000 * static_cast<Payload>(d.lane + 1) + d.from)
        << "delivery must carry the sender's own-lane plane value";
  }
  EXPECT_EQ(fold(MediumKind::kBitslice, got), want_best);
  EXPECT_EQ(got.delivered_count, want.delivered_count);
}

// BatchNetwork::step_lanes under CollisionModel::kDetection — the
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
    std::vector<Payload> best(static_cast<std::size_t>(lanes) * n, kNoPayload);
    const KnowledgePlanes view = KnowledgePlanes::node_major(best, n);
    BatchOutcome out;
    bn.step_lanes(active_list(tx_mask), payload, lanes, view, out);

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
    silent.step_lanes(active_list(tx_mask), payload, lanes, view, silent_out);
    EXPECT_TRUE(silent_out.collisions.empty()) << to_string(kind);
    EXPECT_EQ(silent.total_collisions(), total_collided) << to_string(kind);
  }
}

// RADIOCAST_SHARD_THREADS sets bitslice's default gather-pool worker
// count; without it the default medium is serial (no pool threads).
TEST(MediumBackends, ShardThreadsEnvOverride) {
  util::Rng rng(80);
  const Graph g = graph::gnp(60, 0.1, rng);
  ASSERT_EQ(unsetenv("RADIOCAST_SHARD_THREADS"), 0);
  EXPECT_EQ(BitsliceMedium(g, CollisionModel::kNoDetection).worker_count(),
            1);
  ASSERT_EQ(setenv("RADIOCAST_SHARD_THREADS", "5", 1), 0);
  {
    BitsliceMedium m(g, CollisionModel::kNoDetection, /*threads=*/0);
    EXPECT_EQ(m.worker_count(), 5);
    // An explicit thread count still wins over the environment.
    BitsliceMedium explicit_m(g, CollisionModel::kNoDetection, 2);
    EXPECT_EQ(explicit_m.worker_count(), 2);
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
  std::vector<Payload> best(static_cast<std::size_t>(lanes) * n, kNoPayload);
  BatchOutcome out;
  for (int round = 0; round < 8; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      payload[v] = v;
      tx_mask[v] = 0;
      for (int l = 0; l < lanes; ++l) {
        if (rng.bernoulli(0.2)) tx_mask[v] |= std::uint64_t{1} << l;
      }
    }
    bn.step_lanes(active_list(tx_mask), payload, lanes,
                  KnowledgePlanes::node_major(best, n), out);
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

// Sender recovery must be a pure cost knob. For every backend (bitslice
// serial and pooled), both collision models, and 1/7/64 lanes, kRowScan
// and kAuto must produce identical per-lane senders, delivered masks,
// best[] planes, and tallies.
TEST(MediumBackends, RecoveryStrategyDifferential) {
  util::Rng rng(81);
  const Graph gnp = graph::gnp(140, 0.06, rng);
  const Graph star = graph::star(60);
  constexpr RecoveryStrategy kStrategies[] = {RecoveryStrategy::kRowScan,
                                              RecoveryStrategy::kAuto};
  for (const Graph* g : {&gnp, &star}) {
    const NodeId n = g->node_count();
    for (const CollisionModel model :
         {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
      for (const int lanes : {1, 7, 64}) {
        // Node-major planes exercise real per-lane payload recovery; a
        // second round with one shared constant plane exercises kAuto's
        // no-identification fold shortcut.
        std::vector<std::uint64_t> tx_mask(n, 0);
        std::vector<Payload> planes(static_cast<std::size_t>(lanes) * n);
        for (NodeId v = 0; v < n; ++v) {
          for (int l = 0; l < lanes; ++l) {
            if (rng.bernoulli(0.25)) tx_mask[v] |= std::uint64_t{1} << l;
            planes[static_cast<std::size_t>(v) * lanes + l] =
                7'000 * static_cast<Payload>(l + 1) + v;
          }
        }
        const std::vector<ActiveTx> tx = active_list(tx_mask);
        const std::vector<Payload> shared(n, 42);
        for (const Backend& backend : kAllBackends) {
          const std::string kind = backend.name();
          BatchOutcome want;
          std::vector<test_util::LaneDelivery> want_records;
          std::vector<Payload> want_best;
          bool have_want = false;
          for (const RecoveryStrategy strategy : kStrategies) {
            auto medium = backend.make(*g, model, strategy);
            EXPECT_EQ(medium->recovery_strategy(), strategy);
            BatchOutcome got;
            const auto got_records =
                by_listener(lane_deliveries(*medium, tx, lanes, got));
            std::vector<Payload> got_best(
                static_cast<std::size_t>(lanes) * n, kNoPayload);
            BatchOutcome fold_out;
            medium->resolve_lanes(tx, PayloadPlanes::node_major(planes, n),
                                  lanes,
                                  KnowledgePlanes::node_major(got_best, n),
                                  fold_out);
            BatchOutcome shared_out;
            std::vector<Payload> shared_best(
                static_cast<std::size_t>(lanes) * n, kNoPayload);
            medium->resolve_lanes(tx, shared, lanes,
                                  KnowledgePlanes::node_major(shared_best, n),
                                  shared_out);
            if (!have_want) {
              want = got;
              want_records = got_records;
              want_best = got_best;
              have_want = true;
              // Cross-check the fold against the recovered senders.
              std::vector<Payload> from_senders(
                  static_cast<std::size_t>(lanes) * n, kNoPayload);
              for (const auto& d : got_records) {
                from_senders[static_cast<std::size_t>(d.node) * lanes +
                             d.lane] =
                    planes[static_cast<std::size_t>(d.from) * lanes + d.lane];
              }
              EXPECT_EQ(got_best, from_senders) << kind;
              for (const auto& d : shared_out.delivered) {
                for (std::uint64_t hit = d.lanes; hit != 0; hit &= hit - 1) {
                  const int l = std::countr_zero(hit);
                  EXPECT_EQ(
                      shared_best[static_cast<std::size_t>(d.node) * lanes + l],
                      42u);
                }
              }
              continue;
            }
            const std::string ctx = kind + "/" +
                                    std::string(to_string(strategy)) +
                                    " lanes=" + std::to_string(lanes);
            EXPECT_EQ(got_records, want_records) << ctx;
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

// The knob must actually move the path (the differential above would pass
// vacuously if it were ignored): every sender-recovering round counts as a
// row-scan round, and only kAuto takes the constant-plane fold shortcut.
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
  const std::vector<ActiveTx> tx = active_list(tx_mask);
  const std::vector<Payload> shared(n, 9);
  std::vector<Payload> best(static_cast<std::size_t>(64) * n, kNoPayload);
  for (const RecoveryStrategy strategy :
       {RecoveryStrategy::kRowScan, RecoveryStrategy::kAuto}) {
    auto medium = make_medium(MediumKind::kBitslice, g,
                              CollisionModel::kNoDetection, 0, strategy);
    BatchOutcome out;
    // Node-major planes are never lane-invariant, so even an all-equal
    // buffer goes through sender recovery.
    for (int round = 0; round < 5; ++round) {
      medium->resolve_lanes(tx, PayloadPlanes::node_major(planes, n), 64,
                            KnowledgePlanes::node_major(best, n), out);
    }
    const PhaseTimers& t = medium->phase_timers();
    EXPECT_EQ(t.rounds, 5u);
    EXPECT_EQ(t.rowscan_rounds, 5u);
    EXPECT_EQ(t.idplane_rounds, 0u);
    medium->reset_phase_timers();
    EXPECT_EQ(medium->phase_timers().rounds, 0u);

    // The constant-plane fold: kAuto folds with no sender identification
    // (counted as neither); kRowScan recovers senders as usual.
    medium->resolve_lanes(tx, shared, 64,
                          KnowledgePlanes::node_major(best, n), out);
    const bool folds = strategy == RecoveryStrategy::kAuto;
    EXPECT_EQ(medium->phase_timers().constfold_rounds, folds ? 1u : 0u);
    EXPECT_EQ(medium->phase_timers().rowscan_rounds, folds ? 0u : 1u);
    EXPECT_EQ(medium->phase_timers().idplane_rounds, 0u);
  }
}

// Regression: the single-lane resolve() facade must not leak a
// transmitter's payload into later rounds, so repeated rounds with
// duplicate transmitter entries keep delivering each round's own
// (first-occurrence) payload.
TEST(MediumBackends, DuplicateTransmittersRepeatedRoundsStayFresh) {
  const Graph g = graph::star(6);
  for (const Backend& backend : kAllBackends) {
    const std::string kind = backend.name();
    auto medium = backend.make(g, CollisionModel::kNoDetection);
    for (Payload round = 0; round < 4; ++round) {
      SparseOutcome out;
      // Duplicates every round, with round-varying payloads: first
      // occurrence wins, and nothing from earlier rounds survives.
      medium->resolve(std::vector<NodeId>{2, 2, 2},
                      std::vector<Payload>{100 + round, 7, 8}, out);
      EXPECT_EQ(out.transmitter_count, 1u) << kind;
      ASSERT_EQ(out.deliveries.size(), 1u) << kind;
      EXPECT_EQ(out.deliveries[0].from, 2u);
      EXPECT_EQ(out.deliveries[0].payload, 100 + round)
          << kind << " round " << round;
      // Alternate transmitter between rounds so a stale payload for node 2
      // would be observable if the epilogue ever stopped clearing it.
      SparseOutcome other;
      medium->resolve(std::vector<NodeId>{3}, std::vector<Payload>{55}, other);
      ASSERT_EQ(other.deliveries.size(), 1u) << kind;
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
  for (const Backend& backend : kAllBackends) {
    const std::string kind = backend.name();
    for (const CollisionModel model :
         {CollisionModel::kNoDetection, CollisionModel::kDetection}) {
      auto medium = backend.make(g, model);
      SparseOutcome out;
      // The bad id last, so valid entries before it have touched state.
      std::vector<NodeId> bad_tx = tx;
      std::vector<Payload> bad_pay = pay;
      bad_tx.push_back(n + 1);
      bad_pay.push_back(7);
      EXPECT_THROW(medium->resolve(bad_tx, bad_pay, out), std::invalid_argument)
          << kind;
      Network net(g, model, backend.kind, backend.threads);
      EXPECT_THROW(net.resolve(std::vector<NodeId>{n}, std::vector<Payload>{7},
                               out),
                   std::invalid_argument)
          << kind;
      EXPECT_EQ(net.rounds_elapsed(), 0u) << kind;

      auto fresh = backend.make(g, model);
      SparseOutcome want;
      fresh->resolve(tx, pay, want);
      medium->resolve(tx, pay, out);
      EXPECT_EQ(normalize(out), normalize(want)) << kind;
    }
  }
}

/// The message parse_* throws for `name`, or "" when it parses.
template <class Parse>
std::string parse_error(Parse parse, std::string_view name) {
  try {
    parse(name);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Unknown strategies, "idplanes" included, are rejected with the legal list.
TEST(MediumBackends, ParseRecoveryStrategy) {
  EXPECT_EQ(parse_recovery_strategy("auto"), RecoveryStrategy::kAuto);
  EXPECT_EQ(parse_recovery_strategy("rowscan"), RecoveryStrategy::kRowScan);
  EXPECT_THROW(parse_recovery_strategy("psychic"), std::invalid_argument);
  EXPECT_NE(parse_error(parse_recovery_strategy, "idplanes")
                .find("(expected auto | rowscan)"),
            std::string::npos);
  EXPECT_EQ(to_string(RecoveryStrategy::kRowScan), "rowscan");
}

// Unknown backends, "sharded" included, are rejected with the legal list.
TEST(MediumBackends, ParseKind) {
  EXPECT_EQ(parse_medium_kind("scalar"), MediumKind::kScalar);
  EXPECT_EQ(parse_medium_kind("bitslice"), MediumKind::kBitslice);
  EXPECT_THROW(parse_medium_kind("quantum"), std::invalid_argument);
  EXPECT_NE(parse_error(parse_medium_kind, "sharded")
                .find("(expected scalar | bitslice)"),
            std::string::npos);
  EXPECT_EQ(to_string(MediumKind::kBitslice), "bitslice");
}

}  // namespace
}  // namespace radiocast::radio
