#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/pargen.hpp"

namespace radiocast::graph {

namespace {

/// Cliques of the given sizes strung on a path: the last node of each bead
/// is joined to the first node of the next.
Graph clique_path(const std::vector<NodeId>& bead_sizes) {
  NodeId n = 0;
  for (const NodeId size : bead_sizes) n += size;
  GraphBuilder b(n);
  NodeId start = 0;
  for (const NodeId size : bead_sizes) {
    for (NodeId i = 0; i < size; ++i) {
      for (NodeId j = i + 1; j < size; ++j) b.add_edge(start + i, start + j);
    }
    if (start > 0) b.add_edge(start - 1, start);
    start += size;
  }
  return b.build();
}

}  // namespace

Graph path(NodeId n) {
  if (n == 0) throw std::invalid_argument("path: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

Graph cycle(NodeId n) {
  if (n < 3) throw std::invalid_argument("cycle: n must be >= 3");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

Graph clique(NodeId n) {
  if (n == 0) throw std::invalid_argument("clique: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  }
  return b.build();
}

Graph star(NodeId n) {
  if (n == 0) throw std::invalid_argument("star: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return b.build();
}

Graph grid(NodeId rows, NodeId cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("grid: empty");
  const NodeId n = rows * cols;
  GraphBuilder b(n);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph torus(NodeId rows, NodeId cols) {
  if (rows < 3 || cols < 3) throw std::invalid_argument("torus: dims >= 3");
  const NodeId n = rows * cols;
  GraphBuilder b(n);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return b.build();
}

Graph balanced_binary_tree(NodeId n) {
  if (n == 0) throw std::invalid_argument("tree: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(i, (i - 1) / 2);
  return b.build();
}

Graph random_recursive_tree(NodeId n, util::Rng& rng) {
  if (n == 0) throw std::invalid_argument("tree: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) {
    b.add_edge(i, static_cast<NodeId>(rng.uniform(i)));
  }
  return b.build();
}

Graph caterpillar(NodeId spine, NodeId legs) {
  if (spine == 0) throw std::invalid_argument("caterpillar: spine >= 1");
  const NodeId n = spine * (legs + 1);
  GraphBuilder b(n);
  for (NodeId s = 0; s + 1 < spine; ++s) b.add_edge(s, s + 1);
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId l = 0; l < legs; ++l) {
      b.add_edge(s, spine + s * legs + l);
    }
  }
  return b.build();
}

Graph hypercube(std::uint32_t dim) {
  if (dim == 0 || dim > 24) {
    throw std::invalid_argument("hypercube: dim in [1,24]");
  }
  const NodeId n = NodeId{1} << dim;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < dim; ++bit) {
      const NodeId u = v ^ (NodeId{1} << bit);
      if (v < u) b.add_edge(v, u);
    }
  }
  return b.build();
}

// The random families are seed-based in graph::pargen; drawing one word from
// the caller's stream keeps the Rng& convention of this header without a
// second copy of any sampler.

Graph gnp(NodeId n, double p, util::Rng& rng) {
  return pargen::gnp(n, p, rng());
}

Graph random_geometric(NodeId n, double radius, util::Rng& rng) {
  return pargen::random_geometric(n, radius, rng());
}

Graph barabasi_albert(NodeId n, std::uint32_t m, util::Rng& rng) {
  return pargen::barabasi_albert(n, m, rng());
}

Graph chung_lu(NodeId n, double exponent, double avg_deg, util::Rng& rng) {
  return pargen::chung_lu(n, exponent, avg_deg, rng());
}

Graph path_of_cliques(NodeId beads, NodeId bead_size) {
  if (beads == 0 || bead_size == 0) {
    throw std::invalid_argument("path_of_cliques: empty");
  }
  return clique_path(std::vector<NodeId>(beads, bead_size));
}

Graph barbell(NodeId k, NodeId path_len) {
  if (k == 0) throw std::invalid_argument("barbell: k >= 1");
  const NodeId n = 2 * k + path_len;
  GraphBuilder b(n);
  for (NodeId i = 0; i < k; ++i) {
    for (NodeId j = i + 1; j < k; ++j) {
      b.add_edge(i, j);
      b.add_edge(k + path_len + i, k + path_len + j);
    }
  }
  NodeId prev = k - 1;
  for (NodeId p = 0; p < path_len; ++p) {
    b.add_edge(prev, k + p);
    prev = k + p;
  }
  b.add_edge(prev, k + path_len);  // into the far clique's node 0
  return b.build();
}

Graph lollipop(NodeId k, NodeId path_len) {
  if (k == 0) throw std::invalid_argument("lollipop: k >= 1");
  const NodeId n = k + path_len;
  GraphBuilder b(n);
  for (NodeId i = 0; i < k; ++i) {
    for (NodeId j = i + 1; j < k; ++j) b.add_edge(i, j);
  }
  NodeId prev = k - 1;
  for (NodeId p = 0; p < path_len; ++p) {
    b.add_edge(prev, k + p);
    prev = k + p;
  }
  return b.build();
}

Graph diameter_controlled(NodeId n, NodeId d) {
  if (n < 4 || d < 3 || d > n) {
    throw std::invalid_argument("diameter_controlled: need 4 <= n, 3 <= d <= n");
  }
  // A path of `beads` cliques of size >= 2 has diameter 2*beads - 1. Choose
  // beads ~ d/3 and distribute the n nodes as evenly as possible.
  NodeId beads = std::max<NodeId>(2, (d + 2) / 3);
  beads = std::min(beads, n / 2);
  std::vector<NodeId> bead_sizes(beads, n / beads);
  for (NodeId bead = 0; bead < n % beads; ++bead) ++bead_sizes[bead];
  return clique_path(bead_sizes);
}

}  // namespace radiocast::graph
