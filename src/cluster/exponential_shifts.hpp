// Partition(beta): the Miller-Peng-Xu exponential-shift clustering
// (Lemma 2.1 of Czumaj-Davies; originally MPX, SPAA 2013).
//
// Every node v draws delta_v ~ Exp(beta); node u joins the cluster of the
// centre c maximising key = delta_c - dist(c, u). Key properties the paper
// consumes (all validated by tests and the bench suite):
//   * clusters have strong diameter O(log n / beta) whp       (Lemma 2.1)
//   * each edge is cut with probability O(beta)               (Lemma 2.1)
//   * #distinct clusters within distance d of a node is
//     stochastically dominated by a geometric-like law        (Lemma 4.3)
//   * for beta = 2^-j with random j in [0.01 log D, 0.1 log D], w.p. >=
//     0.55 the expected distance to the centre is O(log n/(beta log D))
//                                                             (Theorem 2.2)
//
// The radio-network distributed implementation costs O(log^3 n / beta)
// rounds (Lemma 2.1); we compute the partition centrally with the *exact*
// random process and charge that round cost via `precompute_rounds` (see
// DESIGN.md "fidelity decisions" #1).
//
// Algorithm. The shifts are drawn in node order over the in-scope nodes
// (so the RNG stream is one exponential per in-scope node). With unit edge
// weights a node settled at key k only offers k - 1 to its neighbours, so
// the keys are bucketed into integer layers below the top shift: own
// shifts are counting-sorted into their layers, and layer b (1) settles
// every node listed there with its best candidate and (2) offers key - 1.0
// to each unsettled linked neighbour, which lands in a later layer, so a
// layer never feeds itself. Step (2) picks its direction once per layer,
// as direction-optimizing BFS does (Beamer, Asanovic, Patterson, SC 2012):
// top-down scans the rows of the nodes settled in layer b; bottom-up has
// every still-open in-scope node scan its own row for neighbours settled
// in layer b. Bottom-up runs when the settled rows' degree sum exceeds
// twice the open nodes' degree sum (a running total), plus n before the
// first switch. On low-diameter graphs that is the one or two layers that
// settle most of the graph, where most top-down arcs would land on nodes
// already settled. Its state (the open list and a per-node settle-layer
// stamp) is built at the first bottom-up layer, so a run that never
// switches pays nothing for it. In both directions a row is first filtered
// into a candidate buffer without a per-arc branch, and only the
// candidates run the compare and tie logic. A node keeps the maximum of
// its offers under one total order (the tie rules below), so the order and
// direction of the offers do not change the result. Cost O(n + m + max
// delta) time, with max delta ~ ln n / beta whp, and fewer arcs scanned on
// low-diameter graphs, instead of a heap Dijkstra's O((n + m) log n). Keys
// are chained doubles (parent key - 1.0), so the result is
// bit-reproducible.
//
// Tie rules (ties have probability zero but are fixed for determinism):
//   * centre: a node's own shift beats an equal offered key; between
//     offers the larger parent key wins, then the smaller centre id;
//   * parent: among equal offers from one centre, the smallest-id
//     neighbour. So a non-centre's parent is its smallest-id linked
//     neighbour in the same cluster one hop closer to the centre.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace radiocast::cluster {

using graph::NodeId;

/// Result of one Partition(beta) run. Node u's cluster is identified by its
/// centre node id; a centre is always its own centre.
struct Partition {
  double beta = 0.0;
  /// Per node: the cluster centre it adopted (kInvalidNode for nodes
  /// excluded by the mask).
  std::vector<NodeId> center;
  /// Per node: hop distance to its centre along the adopted shifted-BFS
  /// tree (== graph distance to centre within the cluster).
  std::vector<std::uint32_t> dist_to_center;
  /// Per node: parent on the adopted shifted-BFS tree (centres point to
  /// themselves): the smallest-id linked neighbour in the same cluster one
  /// hop closer to the centre. The tree is intra-cluster by construction
  /// and is the skeleton the Lemma 2.3 schedules broadcast along.
  std::vector<NodeId> parent;
  /// Per node: the exponential shift it drew.
  std::vector<double> delta;

  NodeId node_count() const { return static_cast<NodeId>(center.size()); }
  bool in_scope(NodeId v) const { return center[v] != graph::kInvalidNode; }
  bool is_center(NodeId v) const { return center[v] == v; }

  /// Dense re-indexing: returns per-node dense cluster ids in
  /// [0, cluster_count), kInvalidNode for out-of-scope nodes, and the list
  /// of centres indexed by dense id.
  struct DenseIds {
    std::vector<NodeId> id_of_node;
    std::vector<NodeId> center_of_id;
  };
  DenseIds dense_ids() const;
};

/// The one-region partition of n nodes: every node in the cluster of node 0
/// (depth and parent fields zeroed). It is the "coarse" layer of Compete's
/// background process and of single-window ICP runs (core/propagation.hpp),
/// where only region membership is read.
Partition trivial_partition(NodeId n);

/// Runs Partition(beta) on the whole graph.
Partition partition(const graph::Graph& g, double beta, util::Rng& rng);

/// Runs Partition(beta) restricted to the nodes with mask[v] != 0; edges
/// leaving the mask are ignored (used for fine clusterings computed inside
/// coarse clusters, which never cross coarse boundaries). mask.size() must
/// equal g.node_count().
Partition partition_masked(const graph::Graph& g, double beta,
                           const std::vector<std::uint8_t>& mask,
                           util::Rng& rng);

/// Runs Partition(beta) independently inside each region: nodes u, v are
/// considered adjacent only when region[u] == region[v]. Nodes with region
/// == graph::kInvalidNode are out of scope. This implements Algorithm 1
/// step 3: fine clusterings computed within each coarse cluster (pass the
/// coarse `center` vector as the region).
Partition partition_regions(const graph::Graph& g, double beta,
                            const std::vector<NodeId>& region,
                            util::Rng& rng);

/// Number of rounds the distributed radio-network implementation of
/// Partition(beta) would cost (Lemma 2.1: O(log^3 n / beta)); used by the
/// round-accounting in core::Compete.
std::uint64_t precompute_rounds(std::uint32_t n, double beta);

}  // namespace radiocast::cluster
