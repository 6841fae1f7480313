// Named benchmark instances: a graph plus its measured diameter, built
// from the generator families the experiments sweep over. Scenarios, the
// sweep planner and tests share this one set of builders.
#pragma once

#include <cstdint>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace radiocast::sim {

/// A graph together with its measured diameter.
struct Instance {
  graph::Graph g;
  std::uint32_t diameter = 0;
  std::string name;
};

/// n-node instance from the path-of-cliques family with about d_target/3
/// beads (graph::diameter_controlled) — the "D polynomial in n" regime the
/// paper targets.
Instance make_cliquepath_instance(graph::NodeId n, graph::NodeId d_target);

Instance make_grid_instance(graph::NodeId rows, graph::NodeId cols);

// Seed-based builders on the graph::pargen facade: the instance is a pure
// function of its arguments (byte-identical for any gen_threads value), so
// sweep grid points can rebuild or cache instances freely. gen_threads
// follows pargen::resolve_threads (0 = env/auto).

Instance make_gnp_instance(graph::NodeId n, double p, std::uint64_t seed,
                           int gen_threads = 0);

Instance make_rgg_instance(graph::NodeId n, double radius, std::uint64_t seed,
                           int gen_threads = 0);

/// Barabasi-Albert with `attach` edges per arriving node.
Instance make_ba_instance(graph::NodeId n, std::uint32_t attach,
                          std::uint64_t seed, int gen_threads = 0);

/// Chung-Lu power-law with the given exponent (> 2) and target average
/// degree.
Instance make_powerlaw_instance(graph::NodeId n, double exponent,
                                double avg_deg, std::uint64_t seed,
                                int gen_threads = 0);

}  // namespace radiocast::sim
