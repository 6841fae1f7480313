#include "cluster/exponential_shifts.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "util/math.hpp"

namespace radiocast::cluster {

Partition::DenseIds Partition::dense_ids() const {
  DenseIds d;
  const NodeId n = node_count();
  d.id_of_node.assign(n, graph::kInvalidNode);
  std::vector<NodeId> center_to_dense(n, graph::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId c = center[v];
    if (c == graph::kInvalidNode) continue;
    if (center_to_dense[c] == graph::kInvalidNode) {
      center_to_dense[c] = static_cast<NodeId>(d.center_of_id.size());
      d.center_of_id.push_back(c);
    }
    d.id_of_node[v] = center_to_dense[c];
  }
  return d;
}

Partition trivial_partition(NodeId n) {
  Partition p;
  p.beta = 1.0;
  p.center.assign(n, 0);
  p.dist_to_center.assign(n, 0);
  p.parent.assign(n, 0);
  p.delta.assign(n, 0.0);
  return p;
}

namespace {

struct QueueEntry {
  double key;  // delta_c - dist(c, v) of the candidate assignment
  NodeId node;
  NodeId center;
  NodeId via;  // neighbour we'd adopt as tree parent
  std::uint32_t hops;
  bool operator<(const QueueEntry& o) const {
    if (key != o.key) return key < o.key;
    return center > o.center;  // ties: smaller centre id wins (max-heap)
  }
};

/// Region-aware neighbourhood predicate.
struct Scope {
  const std::vector<std::uint8_t>* mask = nullptr;
  const std::vector<NodeId>* region = nullptr;
  bool in_scope(NodeId v) const {
    if (mask != nullptr && !(*mask)[v]) return false;
    if (region != nullptr && (*region)[v] == graph::kInvalidNode) return false;
    return true;
  }
  bool linked(NodeId u, NodeId v) const {
    if (!in_scope(u) || !in_scope(v)) return false;
    if (region != nullptr && (*region)[u] != (*region)[v]) return false;
    return true;
  }
};

Partition run_partition(const graph::Graph& g, double beta, const Scope& scope,
                        util::Rng& rng) {
  if (beta <= 0.0) {
    throw std::invalid_argument("partition: beta must be positive");
  }
  const NodeId n = g.node_count();
  Partition p;
  p.beta = beta;
  p.center.assign(n, graph::kInvalidNode);
  p.dist_to_center.assign(n, 0);
  p.parent.assign(n, graph::kInvalidNode);
  p.delta.assign(n, 0.0);

  // Each node starts as a candidate centre for itself with key delta_v.
  // A max-Dijkstra over keys delta_c - dist(c, v) assigns every node the
  // centre maximising the shifted distance (exactly the MPX rule). Shifts
  // are continuous so ties have probability zero; we still break ties
  // deterministically (smaller centre id) for bit-reproducible runs.
  std::priority_queue<QueueEntry> pq;
  std::vector<double> best_key(n, -std::numeric_limits<double>::infinity());
  for (NodeId v = 0; v < n; ++v) {
    if (!scope.in_scope(v)) continue;
    p.delta[v] = rng.exponential(beta);
    best_key[v] = p.delta[v];
    pq.push({p.delta[v], v, v, v, 0});
  }
  while (!pq.empty()) {
    const QueueEntry e = pq.top();
    pq.pop();
    if (p.center[e.node] != graph::kInvalidNode) continue;  // settled
    if (e.key < best_key[e.node]) continue;                 // stale
    p.center[e.node] = e.center;
    p.dist_to_center[e.node] = e.hops;
    p.parent[e.node] = e.via;
    for (NodeId w : g.neighbors(e.node)) {
      if (!scope.linked(e.node, w)) continue;
      if (p.center[w] != graph::kInvalidNode) continue;
      const double key = e.key - 1.0;
      if (key > best_key[w]) {
        best_key[w] = key;
        pq.push({key, w, e.center, e.node, e.hops + 1});
      }
    }
  }
  return p;
}

}  // namespace

Partition partition(const graph::Graph& g, double beta, util::Rng& rng) {
  return run_partition(g, beta, Scope{}, rng);
}

Partition partition_masked(const graph::Graph& g, double beta,
                           const std::vector<std::uint8_t>& mask,
                           util::Rng& rng) {
  if (mask.size() != g.node_count()) {
    throw std::invalid_argument("partition_masked: mask size mismatch");
  }
  Scope s;
  s.mask = &mask;
  return run_partition(g, beta, s, rng);
}

Partition partition_regions(const graph::Graph& g, double beta,
                            const std::vector<NodeId>& region,
                            util::Rng& rng) {
  if (region.size() != g.node_count()) {
    throw std::invalid_argument("partition_regions: region size mismatch");
  }
  Scope s;
  s.region = &region;
  return run_partition(g, beta, s, rng);
}

std::uint64_t precompute_rounds(std::uint32_t n, double beta) {
  const double logn = util::safe_log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(std::ceil(logn * logn * logn / beta));
}

}  // namespace radiocast::cluster
