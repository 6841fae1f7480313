#include "cluster/exponential_shifts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

// Which nodes take part and which edges count. The scope is a template
// parameter so the whole-graph partition pays nothing for the predicate.
struct WholeGraph {
  bool in_scope(NodeId) const { return true; }
  bool linked(NodeId, NodeId) const { return true; }
};

struct Masked {
  const std::vector<std::uint8_t>& mask;
  bool in_scope(NodeId v) const { return mask[v] != 0; }
  bool linked(NodeId u, NodeId v) const { return mask[u] && mask[v]; }
};

struct Regions {
  const std::vector<NodeId>& region;
  bool in_scope(NodeId v) const { return region[v] != graph::kInvalidNode; }
  bool linked(NodeId u, NodeId v) const {
    return region[u] == region[v] && region[u] != graph::kInvalidNode;
  }
};

constexpr std::uint32_t kNoLayer = std::numeric_limits<std::uint32_t>::max();

template <typename Scope>
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

  // Node v's key is delta_c - dist(c, v) for the centre c it adopts, and
  // the MPX rule is: v takes the candidate of largest key. Its candidates
  // are its own shift and key(u) - 1.0 from each linked neighbour u.
  // Shifts are continuous so ties have probability zero; they are still
  // broken deterministically for bit-reproducible runs: the own shift
  // beats an equal offered key, and between offers the larger parent key,
  // then the smaller centre, then the smaller parent id wins. (This is the
  // order in which a max-heap Dijkstra keyed (key, centre, node) would
  // settle the parents, so both compute the same partition.)
  double top = -std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < n; ++v) {
    if (!scope.in_scope(v)) continue;
    p.delta[v] = rng.exponential(beta);
    top = std::max(top, p.delta[v]);
  }
  if (top == -std::numeric_limits<double>::infinity()) return p;

  // Unit edge weights put the keys in integer layers below the top shift.
  // Layer b holds the keys in (bound[b + 1], bound[b]], with bound[0] = top
  // and bound[b + 1] = bound[b] - 1.0 chained exactly like the keys are,
  // so a key k in layer b offers k - 1.0 to layer b + 1 (or, when the
  // subtraction rounds onto bound[b + 2], to layer b + 2): a layer never
  // feeds itself, and each layer settles by a per-node max.
  std::vector<double> bound{top};
  auto bound_at = [&bound](std::size_t b) {
    while (bound.size() <= b) bound.push_back(bound.back() - 1.0);
    return bound[b];
  };

  // Counting-sort the own shifts by layer.
  std::vector<std::uint32_t> own_layer(n, kNoLayer);
  std::vector<std::uint32_t> own_start;
  for (NodeId v = 0; v < n; ++v) {
    if (!scope.in_scope(v)) continue;
    const double d = p.delta[v];
    auto b = static_cast<std::uint32_t>(top - d);  // floor; exact up to +-1
    while (d > bound_at(b)) --b;
    while (d <= bound_at(b + 1)) ++b;
    own_layer[v] = b;
    if (own_start.size() < b + 2) own_start.resize(b + 2, 0);
    ++own_start[b + 1];
  }
  for (std::size_t b = 1; b < own_start.size(); ++b) {
    own_start[b] += own_start[b - 1];
  }
  std::vector<NodeId> own_order(own_start.back());
  {
    std::vector<std::uint32_t> fill(own_start.begin(), own_start.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      if (own_layer[v] != kNoLayer) own_order[fill[own_layer[v]]++] = v;
    }
  }
  const std::size_t own_layers = own_start.size() - 1;

  // key[v] is v's key once v is settled. Before that it is the key of the
  // parent of v's best offer so far (-inf: no offer), and that parent is
  // parent[v]. An offer to v must exceed beat[v]: delta_v until v settles,
  // +inf after. `listed` is the layer whose pending list holds v.
  std::vector<double> key(n, -std::numeric_limits<double>::infinity());
  std::vector<double> beat = p.delta;
  std::vector<std::uint32_t> listed(n, kNoLayer);
  std::vector<NodeId> pending[3];
  std::vector<NodeId> settled;

  for (std::uint32_t b = 0;; ++b) {
    std::vector<NodeId>& offered = pending[b % 3];
    if (b >= own_layers && offered.empty() && pending[(b + 1) % 3].empty()) {
      break;
    }
    const double next_bound = bound_at(b + 2);
    settled.clear();
    // 1. Own shifts: a node with no parent yet (neither settled nor
    //    holding an offer) settles as its own centre. An offer beats the
    //    shift, so a node holding one is listed in this layer or was
    //    settled in an earlier one.
    if (b < own_layers) {
      for (std::uint32_t i = own_start[b]; i < own_start[b + 1]; ++i) {
        const NodeId v = own_order[i];
        if (p.parent[v] != graph::kInvalidNode) continue;
        p.center[v] = v;
        p.parent[v] = v;
        key[v] = p.delta[v];
        beat[v] = std::numeric_limits<double>::infinity();
        settled.push_back(v);
      }
    }
    // 2. Every node listed in this layer settles with its best offer.
    for (NodeId w : offered) {
      if (p.center[w] != graph::kInvalidNode) continue;
      const NodeId u = p.parent[w];
      p.center[w] = p.center[u];
      p.dist_to_center[w] = p.dist_to_center[u] + 1;
      key[w] -= 1.0;
      beat[w] = std::numeric_limits<double>::infinity();
      settled.push_back(w);
    }
    offered.clear();
    // 3. Offer key - 1.0 to each unsettled linked neighbour whose own shift
    //    it beats strictly, keeping the best offer per node.
    for (NodeId u : settled) {
      const double ku = key[u];
      const double offer = ku - 1.0;
      for (NodeId w : g.neighbors(u)) {
        if (!(offer > beat[w]) || ku < key[w]) continue;
        if (!scope.linked(u, w)) continue;
        if (ku == key[w]) {
          const NodeId c = p.parent[w];
          if (p.center[u] != p.center[c] ? p.center[u] > p.center[c] : u > c) {
            continue;
          }
        }
        key[w] = ku;
        p.parent[w] = u;
        const std::uint32_t layer = offer > next_bound ? b + 1 : b + 2;
        if (listed[w] != layer) {
          listed[w] = layer;
          pending[layer % 3].push_back(w);
        }
      }
    }
  }
  return p;
}

}  // namespace

Partition partition(const graph::Graph& g, double beta, util::Rng& rng) {
  return run_partition(g, beta, WholeGraph{}, rng);
}

Partition partition_masked(const graph::Graph& g, double beta,
                           const std::vector<std::uint8_t>& mask,
                           util::Rng& rng) {
  if (mask.size() != g.node_count()) {
    throw std::invalid_argument("partition_masked: mask size mismatch");
  }
  return run_partition(g, beta, Masked{mask}, rng);
}

Partition partition_regions(const graph::Graph& g, double beta,
                            const std::vector<NodeId>& region,
                            util::Rng& rng) {
  if (region.size() != g.node_count()) {
    throw std::invalid_argument("partition_regions: region size mismatch");
  }
  return run_partition(g, beta, Regions{region}, rng);
}

std::uint64_t precompute_rounds(std::uint32_t n, double beta) {
  const double logn = util::safe_log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(std::ceil(logn * logn * logn / beta));
}

}  // namespace radiocast::cluster
