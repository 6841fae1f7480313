#include "cluster/exponential_shifts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
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
  //
  // beat[v]: an offer to v must exceed it. It is delta_v until v settles
  // and +inf after, and +inf for out-of-scope nodes, which take no offers.
  // open_volume is the degree sum of the in-scope nodes not settled yet.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> beat(n, kInf);
  std::uint64_t open_volume = 0;
  double top = -kInf;
  for (NodeId v = 0; v < n; ++v) {
    if (!scope.in_scope(v)) continue;
    p.delta[v] = rng.exponential(beta);
    beat[v] = p.delta[v];
    open_volume += g.degree(v);
    top = std::max(top, p.delta[v]);
  }
  if (top == -kInf) return p;

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
  // parent[v]. `listed` is the layer whose pending list holds v.
  std::vector<double> key(n, -kInf);
  std::vector<std::uint32_t> listed(n, kNoLayer);
  std::vector<NodeId> pending[3];
  std::vector<NodeId> settled;
  // A row filtered down to the arcs that can carry an offer.
  std::vector<NodeId> cand;
  // Bottom-up state, built at the first bottom-up layer: the in-scope nodes
  // that may still be open, and the layer each node settled in (kept for
  // the bottom-up layers only).
  std::vector<NodeId> open;
  std::vector<std::uint32_t> settled_in;

  for (std::uint32_t b = 0;; ++b) {
    std::vector<NodeId>& offered = pending[b % 3];
    if (b >= own_layers && offered.empty() && pending[(b + 1) % 3].empty()) {
      break;
    }
    const double next_bound = bound_at(b + 2);
    settled.clear();
    std::uint64_t settled_volume = 0;
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
        beat[v] = kInf;
        settled_volume += g.degree(v);
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
      beat[w] = kInf;
      settled_volume += g.degree(w);
      settled.push_back(w);
    }
    offered.clear();
    open_volume -= settled_volume;
    if (open_volume == 0) continue;  // no open node has a neighbour left
    // 3. Each node settled here offers key - 1.0 to each linked neighbour
    //    whose beat it exceeds, and every node keeps its best offer. The
    //    best offer is a maximum under a total order (see offer_to), so
    //    the offers may be made in either direction and in any order.
    auto offer_to = [&](NodeId u, NodeId w) {
      const double ku = key[u];
      const double offer = ku - 1.0;
      if (!(offer > beat[w]) || ku < key[w] || !scope.linked(u, w)) return;
      if (ku == key[w]) {
        const NodeId c = p.parent[w];
        if (p.center[u] != p.center[c] ? p.center[u] > p.center[c] : u > c) {
          return;
        }
      }
      key[w] = ku;
      p.parent[w] = u;
      const std::uint32_t layer = offer > next_bound ? b + 1 : b + 2;
      if (listed[w] != layer) {
        listed[w] = layer;
        pending[layer % 3].push_back(w);
      }
    };
    // Each row is first filtered into `cand` without a branch per arc;
    // only the arcs that pass run the compare and tie logic.
    auto filter_row = [&](NodeId v, auto pass) {
      const auto row = g.neighbors(v);
      if (cand.size() < row.size()) cand.resize(row.size());
      NodeId* out = cand.data();
      std::size_t k = 0;
      for (NodeId x : row) {
        out[k] = x;
        k += pass(x);
      }
      return std::span<const NodeId>(out, k);
    };
    // Top-down scans the settled rows, bottom-up the open rows. Bottom-up
    // must win by a margin (2x; 1x to 4x time the same on gnp), and its
    // first layer also builds its state in O(n), so tail layers that
    // settle a handful of nodes do not switch.
    const std::uint64_t bottom_up_cost =
        2 * open_volume + (settled_in.empty() ? n : 0);
    if (settled_volume <= bottom_up_cost) {
      // Top-down: scan the rows of the nodes settled in this layer.
      for (NodeId u : settled) {
        const double offer = key[u] - 1.0;
        for (NodeId w :
             filter_row(u, [&](NodeId x) { return offer > beat[x]; })) {
          offer_to(u, w);
        }
      }
    } else {
      // Bottom-up: each open node scans its own row for this layer's nodes.
      if (settled_in.empty()) {
        settled_in.assign(n, kNoLayer);
        for (NodeId v = 0; v < n; ++v) {
          if (beat[v] != kInf) open.push_back(v);
        }
      } else {
        std::erase_if(open, [&](NodeId v) { return beat[v] == kInf; });
      }
      for (NodeId u : settled) settled_in[u] = b;
      for (NodeId w : open) {
        for (NodeId u :
             filter_row(w, [&](NodeId x) { return settled_in[x] == b; })) {
          offer_to(u, w);
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
