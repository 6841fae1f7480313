// Graph families used throughout the experiments.
//
// The paper's regime of interest is D polynomial in n (large diameter), so
// besides the classic random families we provide generators whose diameter
// is a controllable parameter: paths of cliques, grids with aspect ratio,
// caterpillars, barbells and lollipops. Every generator returns a connected
// graph. The random families (gnp, random_geometric, barabasi_albert,
// chung_lu) delegate to graph::pargen with one seed word drawn from the
// caller's Rng, so each family has exactly one sampler; pargen repairs
// connectivity by adding one edge between the first-discovered nodes of
// consecutive components.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace radiocast::graph {

/// Simple path v0 - v1 - ... - v_{n-1}. Diameter n-1.
Graph path(NodeId n);

/// Cycle on n >= 3 nodes. Diameter floor(n/2).
Graph cycle(NodeId n);

/// Complete graph on n nodes. Diameter 1.
Graph clique(NodeId n);

/// Star with n-1 leaves. Diameter 2.
Graph star(NodeId n);

/// rows x cols grid, 4-neighbour. Diameter rows+cols-2.
Graph grid(NodeId rows, NodeId cols);

/// rows x cols torus (wrap-around grid), 4-neighbour.
Graph torus(NodeId rows, NodeId cols);

/// Complete binary tree with n nodes (heap indexing). Diameter ~2 log n.
Graph balanced_binary_tree(NodeId n);

/// Uniform random recursive tree: node i attaches to uniform j < i.
/// Diameter Theta(log n) whp.
Graph random_recursive_tree(NodeId n, util::Rng& rng);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` leaves.
/// Diameter spine+1. n = spine * (legs + 1).
Graph caterpillar(NodeId spine, NodeId legs);

/// d-dimensional hypercube: n = 2^dim nodes, diameter dim.
Graph hypercube(std::uint32_t dim);

/// Erdos-Renyi G(n, p). Delegates to graph::pargen; if disconnected,
/// consecutive components are stitched by one edge (adds < #components
/// extra edges).
Graph gnp(NodeId n, double p, util::Rng& rng);

/// Random geometric graph (unit-disk model): n points uniform in the unit
/// square, edge iff distance <= radius. Delegates to graph::pargen;
/// connectivity repaired by component stitching like gnp (the repair edges
/// may be longer than `radius`). This is the canonical "sensor network"
/// topology for radio networks.
Graph random_geometric(NodeId n, double radius, util::Rng& rng);

/// Barabasi-Albert preferential attachment: each new node attaches `m`
/// edges to earlier nodes with probability proportional to their degree.
/// Delegates to graph::pargen (chunked parallel, seed drawn from `rng`);
/// connectivity repaired by component stitching. Heavy-tailed degrees —
/// the hub-dominated regime absent from the Gnp/RGG/grid trio.
Graph barabasi_albert(NodeId n, std::uint32_t m, util::Rng& rng);

/// Chung-Lu power-law random graph: weights w_i ~ (n/(i+1))^(1/(exponent-1))
/// scaled to expected average degree `avg_deg`; edge (u,v) with probability
/// min(1, w_u w_v / sum w). Delegates to graph::pargen. exponent > 2.
Graph chung_lu(NodeId n, double exponent, double avg_deg, util::Rng& rng);

/// Path of cliques ("beads"): `beads` cliques of size `bead_size` strung on
/// a path, the last node of each bead joined to the first node of the next.
/// n = beads * bead_size, D = 2*beads - 1 for bead_size >= 2. For
/// bead_size >= 3 and beads >= 2 it equals
/// diameter_controlled(beads * bead_size, 3*beads - 2). This family
/// realises "D polynomial in n" with dense local neighbourhoods, the regime
/// where the paper's algorithm shines.
Graph path_of_cliques(NodeId beads, NodeId bead_size);

/// Barbell: two cliques of size k joined by a path of length path_len.
Graph barbell(NodeId k, NodeId path_len);

/// Lollipop: clique of size k with a path of length path_len attached.
Graph lollipop(NodeId k, NodeId path_len);

/// A family for diameter-controlled experiments: n total nodes arranged as a
/// path of about d/3 cliques, so its diameter is about 2d/3 (d >= 3).
/// Ensures n nodes exactly by giving the first n % beads beads one extra
/// node.
Graph diameter_controlled(NodeId n, NodeId d);

}  // namespace radiocast::graph
