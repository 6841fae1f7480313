// Exhaustive verification of the interference rule — THE semantics every
// experiment depends on (Section 1.1 of the paper).
#include "radio/network.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;

std::vector<std::uint8_t> tx_mask(NodeId n,
                                  std::initializer_list<NodeId> who) {
  std::vector<std::uint8_t> m(n, 0);
  for (NodeId v : who) m[v] = 1;
  return m;
}

std::vector<Payload> payloads(NodeId n, Payload base = 100) {
  std::vector<Payload> p(n);
  for (NodeId v = 0; v < n; ++v) p[v] = base + v;
  return p;
}

// fold_max is the max-fold every relay uses, with kNoPayload as "nothing
// yet"; it must match the spelled-out compare on the edge values.
TEST(Model, FoldMaxEdgeValues) {
  auto fold = [](Payload b, Payload p) {
    fold_max(b, p);
    return b;
  };
  EXPECT_EQ(fold(kNoPayload, 0), 0u);          // anything replaces "nothing"
  EXPECT_EQ(fold(7, 7), 7u);                   // equal value
  EXPECT_EQ(fold(7, 0), 7u);                   // p = 0 never wins a max
  EXPECT_EQ(fold(7, kNoPayload - 1), kNoPayload - 1);
  EXPECT_EQ(fold(7, kNoPayload), kNoPayload);  // the largest value
  constexpr Payload kEdges[] = {0, 7, 8, kNoPayload - 1, kNoPayload};
  for (const Payload b : kEdges) {
    for (const Payload p : kEdges) {
      const Payload want = (b == kNoPayload || p > b) ? p : b;
      EXPECT_EQ(fold(b, p), want) << b << " <- " << p;
    }
  }
}

TEST(Network, SingleTransmitterDelivers) {
  // star: 0 center, 1..3 leaves
  const Graph g = graph::star(4);
  Network net(g);
  const auto out = net.step(tx_mask(4, {1}), payloads(4));
  EXPECT_EQ(out.reception[0], Reception::kMessage);
  EXPECT_EQ(out.received_payload[0], 101u);
  EXPECT_EQ(out.delivered_count, 1u);
  EXPECT_EQ(out.collided_count, 0u);
}

TEST(Network, TwoTransmittersCollideAtCommonNeighbor) {
  const Graph g = graph::star(4);
  Network net(g);
  const auto out = net.step(tx_mask(4, {1, 2}), payloads(4));
  // Centre hears nothing and CANNOT distinguish it from silence.
  EXPECT_EQ(out.reception[0], Reception::kSilence);
  EXPECT_EQ(out.collided_count, 1u);
  EXPECT_EQ(out.delivered_count, 0u);
}

TEST(Network, SilenceWhenNoneTransmit) {
  const Graph g = graph::star(4);
  Network net(g);
  const auto out = net.step(tx_mask(4, {}), payloads(4));
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(out.reception[v], Reception::kSilence);
  }
  EXPECT_EQ(out.transmitter_count, 0u);
}

TEST(Network, TransmitterNeverReceives) {
  // Half-duplex: 0-1 edge, both transmit; neither receives.
  const Graph g = graph::path(2);
  Network net(g);
  const auto out = net.step(tx_mask(2, {0, 1}), payloads(2));
  EXPECT_EQ(out.reception[0], Reception::kSilence);
  EXPECT_EQ(out.reception[1], Reception::kSilence);
  EXPECT_EQ(out.delivered_count, 0u);
}

TEST(Network, TransmitterWithOneTransmittingNeighborStillDeaf) {
  // 0-1-2 path, 0 and 1 transmit: node 2 hears 1; node 0 is transmitting
  // and must not hear 1.
  const Graph g = graph::path(3);
  Network net(g);
  const auto out = net.step(tx_mask(3, {0, 1}), payloads(3));
  EXPECT_EQ(out.reception[2], Reception::kMessage);
  EXPECT_EQ(out.received_payload[2], 101u);
  EXPECT_EQ(out.reception[0], Reception::kSilence);
}

TEST(Network, NonNeighborsDoNotInterfere) {
  // 0-1, 2-3 disjoint edges; both 0 and 2 transmit.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  Network net(g);
  const auto out = net.step(tx_mask(4, {0, 2}), payloads(4));
  EXPECT_EQ(out.reception[1], Reception::kMessage);
  EXPECT_EQ(out.received_payload[1], 100u);
  EXPECT_EQ(out.reception[3], Reception::kMessage);
  EXPECT_EQ(out.received_payload[3], 102u);
}

TEST(Network, CollisionTruthTableOnTriangleWithPendant) {
  // Graph: triangle 0-1-2 plus pendant 3 attached to 0. Enumerate ALL 16
  // transmit patterns and check each listener against first principles.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(0, 3);
  const Graph g = b.build();
  Network net(g);
  const auto pay = payloads(4);
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    std::vector<std::uint8_t> tx(4, 0);
    for (NodeId v = 0; v < 4; ++v) tx[v] = (mask >> v) & 1;
    const auto out = net.step(tx, pay);
    for (NodeId v = 0; v < 4; ++v) {
      std::uint32_t tx_nb = 0;
      Payload expect_pay = kNoPayload;
      for (NodeId u : g.neighbors(v)) {
        if (tx[u]) {
          ++tx_nb;
          expect_pay = pay[u];
        }
      }
      if (tx[v] || tx_nb != 1) {
        EXPECT_EQ(out.reception[v], Reception::kSilence)
            << "mask=" << mask << " v=" << v;
      } else {
        EXPECT_EQ(out.reception[v], Reception::kMessage)
            << "mask=" << mask << " v=" << v;
        EXPECT_EQ(out.received_payload[v], expect_pay);
      }
    }
  }
}

TEST(Network, DetectionModelReportsCollision) {
  const Graph g = graph::star(4);
  Network net(g, CollisionModel::kDetection);
  const auto out = net.step(tx_mask(4, {1, 2}), payloads(4));
  EXPECT_EQ(out.reception[0], Reception::kCollision);
}

TEST(Network, NoDetectionModelHidesCollision) {
  const Graph g = graph::star(4);
  Network net(g, CollisionModel::kNoDetection);
  const auto out = net.step(tx_mask(4, {1, 2, 3}), payloads(4));
  EXPECT_EQ(out.reception[0], Reception::kSilence);
  EXPECT_EQ(out.collided_count, 1u);  // counted internally either way
}

TEST(Network, CountersAccumulate) {
  const Graph g = graph::path(3);
  Network net(g);
  net.step(tx_mask(3, {0}), payloads(3));
  net.step(tx_mask(3, {0, 2}), payloads(3));
  EXPECT_EQ(net.rounds_elapsed(), 2u);
  EXPECT_EQ(net.total_transmissions(), 3u);
  EXPECT_EQ(net.total_deliveries(), 1u + 0u);  // round2: node1 collides
  EXPECT_EQ(net.total_collisions(), 1u);
  net.reset_counters();
  EXPECT_EQ(net.rounds_elapsed(), 0u);
  EXPECT_EQ(net.total_transmissions(), 0u);
}

TEST(Network, SizeMismatchThrows) {
  const Graph g = graph::path(3);
  Network net(g);
  std::vector<std::uint8_t> tx(2, 0);
  std::vector<Payload> pay(3, 0);
  RoundOutcome out;
  EXPECT_THROW(net.step(tx, pay, out), std::invalid_argument);
}

// --- resolve() must agree exactly with the dense rule ---------------------

TEST(NetworkSparse, AgreesWithDenseOnRandomRounds) {
  util::Rng rng(99);
  const Graph g = graph::gnp(120, 0.05, rng);
  Network dense(g), sparse(g);
  const NodeId n = g.node_count();
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> tx(n, 0);
    std::vector<Payload> pay(n, kNoPayload);
    std::vector<graph::NodeId> tx_nodes;
    std::vector<Payload> tx_pay;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(0.1)) {
        tx[v] = 1;
        pay[v] = 1000 + v;
        tx_nodes.push_back(v);
        tx_pay.push_back(pay[v]);
      }
    }
    const auto d = dense.step(tx, pay);
    SparseOutcome s;
    sparse.resolve(tx_nodes, tx_pay, s);
    EXPECT_EQ(s.transmitter_count, d.transmitter_count);
    EXPECT_EQ(s.collided_count, d.collided_count);
    EXPECT_EQ(s.deliveries.size(), d.delivered_count);
    for (const auto& del : s.deliveries) {
      EXPECT_EQ(d.reception[del.node], Reception::kMessage);
      EXPECT_EQ(d.received_payload[del.node], del.payload);
      EXPECT_TRUE(g.has_edge(del.node, del.from));
    }
  }
}

TEST(NetworkSparse, DeduplicatesTransmitters) {
  const Graph g = graph::path(2);
  Network net(g);
  SparseOutcome out;
  net.resolve(std::vector<NodeId>{0, 0, 0}, std::vector<Payload>{5, 5, 5},
              out);
  EXPECT_EQ(out.transmitter_count, 1u);
  ASSERT_EQ(out.deliveries.size(), 1u);
  EXPECT_EQ(out.deliveries[0].node, 1u);
  EXPECT_EQ(out.deliveries[0].payload, 5u);
}

TEST(NetworkSparse, HalfDuplexRespected) {
  const Graph g = graph::path(2);
  Network net(g);
  SparseOutcome out;
  net.resolve(std::vector<NodeId>{0, 1}, std::vector<Payload>{5, 6}, out);
  EXPECT_TRUE(out.deliveries.empty());
}

TEST(NetworkSparse, MismatchThrows) {
  const Graph g = graph::path(3);
  Network net(g);
  SparseOutcome out;
  std::vector<graph::NodeId> tx{0};
  std::vector<Payload> pay;
  EXPECT_THROW(net.resolve(tx, pay, out), std::invalid_argument);
}

}  // namespace
}  // namespace radiocast::radio
