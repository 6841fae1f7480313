// Immutable undirected graph in compressed-sparse-row form.
//
// This is the topology substrate for the radio-network simulator: the
// per-round collision resolution iterates neighbourhoods, so adjacency must
// be cache-friendly and allocation-free at simulation time. Graphs are
// built once via GraphBuilder (which deduplicates parallel edges and drops
// self-loops) and then frozen into CSR arrays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace radiocast::graph {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

class Graph {
 public:
  Graph() = default;

  /// Adopts already-assembled CSR arrays (offsets size n+1, adjacency size
  /// 2m with both directions of every edge present and each row sorted,
  /// deduplicated, and self-loop free — the caller's contract; the parallel
  /// generators in graph/pargen.* produce exactly this). Validates the
  /// cheap structural invariants (monotone offsets, matching sizes, ids in
  /// range) and throws std::invalid_argument on violation; row ordering is
  /// not re-checked here, it is pinned by the generator tests.
  static Graph from_csr(std::vector<std::uint64_t> offsets,
                        std::vector<NodeId> adjacency);

  NodeId node_count() const { return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1); }
  std::uint64_t edge_count() const { return adjacency_.size() / 2; }

  /// Neighbours of v, sorted ascending.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// The CSR offset array (size n+1): degree_prefix()[v] is the sum of
  /// degrees of all nodes < v, and degree_prefix()[n] == 2m. Used for
  /// balanced slice cuts (the bitslice medium's gather pool) and any other
  /// adjacency-volume partitioning.
  std::span<const std::uint64_t> degree_prefix() const { return offsets_; }

  std::uint32_t max_degree() const;
  double average_degree() const;

  /// O(log deg) adjacency query (binary search over the sorted row).
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) with u < v, lexicographic order.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// One-line human-readable summary: n, m, max degree.
  std::string summary() const;

 private:
  friend class GraphBuilder;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;       // size 2m, row-sorted
};

/// Accumulates edges, then freezes into a Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId node_count);

  /// Adds undirected edge {u, v}. Self-loops are ignored; duplicates are
  /// deduplicated at build time.
  void add_edge(NodeId u, NodeId v);

  NodeId node_count() const { return n_; }
  std::size_t pending_edges() const { return edges_.size(); }

  /// Freezes into CSR. The builder may be reused afterwards.
  Graph build() const;

 private:
  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace radiocast::graph
