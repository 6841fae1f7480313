// Differential test for the radio medium's two code paths: the sparse
// entry point Network::resolve must agree with the dense Network::step on
// deliveries, payloads, and aggregate counters for ANY graph and transmit
// set — they implement the same interference rule and every algorithm
// picks one or the other purely for performance.
#include "radio/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;

struct Delivery {
  NodeId node;
  Payload payload;
  bool operator==(const Delivery&) const = default;
  bool operator<(const Delivery& o) const {
    return node < o.node || (node == o.node && payload < o.payload);
  }
};

/// Runs one round through both kernels and asserts identical outcomes.
void check_round(const Graph& g, const std::vector<std::uint8_t>& transmit,
                 const std::vector<Payload>& payload) {
  const NodeId n = g.node_count();

  Network dense_net(g);
  RoundOutcome dense;
  dense_net.step(transmit, payload, dense);

  std::vector<NodeId> tx_nodes;
  std::vector<Payload> tx_pay;
  for (NodeId v = 0; v < n; ++v) {
    if (transmit[v]) {
      tx_nodes.push_back(v);
      tx_pay.push_back(payload[v]);
    }
  }
  Network sparse_net(g);
  SparseOutcome sparse;
  sparse_net.resolve(tx_nodes, tx_pay, sparse);

  // Aggregates.
  EXPECT_EQ(dense.transmitter_count, sparse.transmitter_count);
  EXPECT_EQ(dense.delivered_count, sparse.deliveries.size());
  EXPECT_EQ(dense.collided_count, sparse.collided_count);

  // Per-delivery agreement: same listeners, same payloads; and the sparse
  // 'from' must be a transmitting neighbour of the listener.
  std::vector<Delivery> from_dense, from_sparse;
  for (NodeId v = 0; v < n; ++v) {
    if (dense.reception[v] == Reception::kMessage) {
      from_dense.push_back({v, dense.received_payload[v]});
    }
  }
  for (const auto& d : sparse.deliveries) {
    from_sparse.push_back({d.node, d.payload});
    EXPECT_TRUE(transmit[d.from]) << "sender " << d.from << " did not tx";
    const auto nbrs = g.neighbors(d.node);
    EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), d.from) != nbrs.end())
        << "sender " << d.from << " not a neighbour of " << d.node;
    EXPECT_EQ(d.payload, payload[d.from]);
  }
  std::sort(from_dense.begin(), from_dense.end());
  std::sort(from_sparse.begin(), from_sparse.end());
  EXPECT_EQ(from_dense, from_sparse);
}

void check_graph_at_densities(const Graph& g, util::Rng& rng) {
  const NodeId n = g.node_count();
  for (const double density : {0.0, 0.02, 0.1, 0.5, 1.0}) {
    std::vector<std::uint8_t> transmit(n, 0);
    std::vector<Payload> payload(n, kNoPayload);
    for (NodeId v = 0; v < n; ++v) {
      transmit[v] = rng.bernoulli(density);
      payload[v] = 100 + v;
    }
    check_round(g, transmit, payload);
  }
}

TEST(NetworkDifferential, RandomGnpGraphs) {
  util::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gnp(120, 0.05, rng);
    check_graph_at_densities(g, rng);
  }
}

TEST(NetworkDifferential, RandomGeometricGraphs) {
  util::Rng rng(43);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::random_geometric(200, 0.12, rng);
    check_graph_at_densities(g, rng);
  }
}

TEST(NetworkDifferential, StructuredFamilies) {
  util::Rng rng(44);
  check_graph_at_densities(graph::star(65), rng);
  check_graph_at_densities(graph::grid(9, 13), rng);
  check_graph_at_densities(graph::clique(40), rng);
  check_graph_at_densities(graph::path_of_cliques(10, 8), rng);
}

TEST(NetworkDifferential, DuplicateTransmittersCountedOnce) {
  const Graph g = graph::star(8);
  Network dense_net(g);
  std::vector<std::uint8_t> transmit(g.node_count(), 0);
  std::vector<Payload> payload(g.node_count(), kNoPayload);
  transmit[3] = 1;
  payload[3] = 7;
  const RoundOutcome dense = dense_net.step(transmit, payload);

  Network sparse_net(g);
  SparseOutcome sparse;
  sparse_net.resolve(std::vector<NodeId>{3, 3, 3},
                     std::vector<Payload>{7, 7, 7}, sparse);

  EXPECT_EQ(sparse.transmitter_count, 1u);
  EXPECT_EQ(dense.transmitter_count, sparse.transmitter_count);
  ASSERT_EQ(sparse.deliveries.size(), 1u);
  EXPECT_EQ(sparse.deliveries[0].node, 0u);
  EXPECT_EQ(sparse.deliveries[0].from, 3u);
  EXPECT_EQ(sparse.deliveries[0].payload, 7u);
  EXPECT_EQ(dense.delivered_count, 1u);
}

TEST(NetworkDifferential, CountersAdvanceIdentically) {
  util::Rng rng(45);
  const Graph g = graph::grid(8, 8);
  Network dense_net(g);
  Network sparse_net(g);
  RoundOutcome dense;
  SparseOutcome sparse;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint8_t> transmit(g.node_count(), 0);
    std::vector<Payload> payload(g.node_count(), kNoPayload);
    std::vector<NodeId> tx_nodes;
    std::vector<Payload> tx_pay;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      transmit[v] = rng.bernoulli(0.15);
      payload[v] = v;
      if (transmit[v]) {
        tx_nodes.push_back(v);
        tx_pay.push_back(v);
      }
    }
    dense_net.step(transmit, payload, dense);
    sparse_net.resolve(tx_nodes, tx_pay, sparse);
  }
  EXPECT_EQ(dense_net.rounds_elapsed(), sparse_net.rounds_elapsed());
  EXPECT_EQ(dense_net.total_transmissions(),
            sparse_net.total_transmissions());
  EXPECT_EQ(dense_net.total_deliveries(), sparse_net.total_deliveries());
  EXPECT_EQ(dense_net.total_collisions(), sparse_net.total_collisions());
}

}  // namespace
}  // namespace radiocast::radio
