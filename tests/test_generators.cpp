#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/pargen.hpp"

namespace radiocast::graph {
namespace {

/// Byte-level CSR equality: offsets and row contents, not just counts.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto ra = a.neighbors(v);
    const auto rb = b.neighbors(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "row " << v;
  }
}

TEST(Generators, PathShape) {
  const Graph g = path(10);
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_EQ(diameter_exact(g), 9u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 2u);
}

TEST(Generators, SingleNodePath) {
  const Graph g = path(1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Generators, CycleShape) {
  const Graph g = cycle(8);
  EXPECT_EQ(g.edge_count(), 8u);
  EXPECT_EQ(diameter_exact(g), 4u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, CliqueShape) {
  const Graph g = clique(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(diameter_exact(g), 1u);
}

TEST(Generators, StarShape) {
  const Graph g = star(7);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(diameter_exact(g), 2u);
}

TEST(Generators, GridShapeAndDiameter) {
  const Graph g = grid(4, 6);
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_EQ(g.edge_count(), 4u * 5 + 3u * 6);
  EXPECT_EQ(diameter_exact(g), 4u + 6u - 2u);
}

TEST(Generators, TorusIsRegular) {
  const Graph g = torus(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, BalancedBinaryTree) {
  const Graph g = balanced_binary_tree(15);
  EXPECT_EQ(g.edge_count(), 14u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 6u);  // leaf -> root -> leaf
}

TEST(Generators, RandomRecursiveTreeIsTree) {
  util::Rng rng(5);
  const Graph g = random_recursive_tree(200, rng);
  EXPECT_EQ(g.edge_count(), 199u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CaterpillarShape) {
  const Graph g = caterpillar(5, 3);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 6u);  // leg - spine(4 hops) - leg
}

TEST(Generators, HypercubeShape) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.edge_count(), 32u);
  EXPECT_EQ(diameter_exact(g), 4u);
}

TEST(Generators, GnpConnectedAndPlausibleDensity) {
  util::Rng rng(7);
  const Graph g = gnp(400, 0.02, rng);
  EXPECT_TRUE(is_connected(g));
  // E[m] ~ C(400,2)*0.02 = 1596; repair adds few edges.
  EXPECT_GT(g.edge_count(), 1200u);
  EXPECT_LT(g.edge_count(), 2000u);
}

TEST(Generators, GnpZeroProbabilityStillConnected) {
  util::Rng rng(9);
  const Graph g = gnp(50, 0.0, rng);
  EXPECT_TRUE(is_connected(g));  // pure repair chain
  EXPECT_EQ(g.edge_count(), 49u);
}

TEST(Generators, GnpFullProbabilityIsClique) {
  util::Rng rng(11);
  const Graph g = gnp(20, 1.0, rng);
  EXPECT_EQ(g.edge_count(), 190u);
}

TEST(Generators, RandomGeometricConnected) {
  util::Rng rng(13);
  const Graph g = random_geometric(500, 0.08, rng);
  EXPECT_EQ(g.node_count(), 500u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomGeometricRespectsRadius) {
  // With a big radius everything connects directly.
  util::Rng rng(15);
  const Graph g = random_geometric(30, 2.0, rng);
  EXPECT_EQ(g.edge_count(), 30u * 29 / 2);
}

TEST(Generators, BarabasiAlbertHubbyAndConnected) {
  util::Rng rng(17);
  const Graph g = barabasi_albert(5000, 3, rng);
  EXPECT_EQ(g.node_count(), 5000u);
  EXPECT_TRUE(is_connected(g));
  // ~m edges per arriving node, minus bootstrap self-loops/duplicates.
  EXPECT_LE(g.edge_count(), 15000u);
  EXPECT_GT(g.edge_count(), 12000u);
  // Preferential attachment concentrates degree far above the mean.
  EXPECT_GT(g.max_degree(), 60u);
}

TEST(Generators, ChungLuDensityTracksTarget) {
  util::Rng rng(19);
  const Graph g = chung_lu(5000, 2.5, 10.0, rng);
  EXPECT_EQ(g.node_count(), 5000u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_NEAR(g.average_degree(), 10.0, 2.5);
  EXPECT_GT(g.max_degree(), 100u);  // heavy tail
}

TEST(Generators, PathOfCliquesShape) {
  const Graph g = path_of_cliques(5, 4);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_TRUE(is_connected(g));
  // Each bead is a K4 (6 edges), 4 bridges.
  EXPECT_EQ(g.edge_count(), 5u * 6 + 4);
  // Diameter: within bead 1 hop ends, bridge 1: 3*5-2... measured:
  EXPECT_EQ(diameter_exact(g), 9u);
}

// The Rng& entry points of the random families are the pargen samplers
// seeded with one word of the caller's stream: there is no second sampler.
TEST(Generators, RandomFamiliesArePargen) {
  for (const std::uint64_t s : {1u, 2u, 3u}) {
    const auto check = [s](const auto& from_rng, const auto& from_seed) {
      util::Rng rng(s);
      util::Rng copy = rng;
      const std::uint64_t seed = copy();
      expect_identical(from_rng(rng), from_seed(seed));
      EXPECT_EQ(rng(), copy()) << "the entry point draws exactly one word";
    };
    check([](util::Rng& r) { return gnp(300, 0.02, r); },
          [](std::uint64_t x) { return pargen::gnp(300, 0.02, x); });
    check([](util::Rng& r) { return random_geometric(300, 0.1, r); },
          [](std::uint64_t x) {
            return pargen::random_geometric(300, 0.1, x);
          });
    check([](util::Rng& r) { return barabasi_albert(300, 3, r); },
          [](std::uint64_t x) { return pargen::barabasi_albert(300, 3, x); });
    check([](util::Rng& r) { return chung_lu(300, 2.5, 8.0, r); },
          [](std::uint64_t x) { return pargen::chung_lu(300, 2.5, 8.0, x); });
  }
}

// Both clique-path families share one builder; with equal beads they are
// the same graph edge for edge.
TEST(Generators, PathOfCliquesIsDiameterControlledEvenCase) {
  for (NodeId beads = 2; beads <= 70; ++beads) {
    for (NodeId size = 3; size <= 14; ++size) {
      SCOPED_TRACE("beads=" + std::to_string(beads) +
                   " size=" + std::to_string(size));
      expect_identical(path_of_cliques(beads, size),
                       diameter_controlled(beads * size, 3 * beads - 2));
    }
  }
}

TEST(Generators, BarbellShape) {
  const Graph g = barbell(5, 3);
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 6u);  // clique hop + 4 path hops + clique hop
}

TEST(Generators, LollipopShape) {
  const Graph g = lollipop(6, 4);
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 5u);
}

TEST(Generators, DiameterControlledHitsTarget) {
  for (NodeId d : {9u, 30u, 60u}) {
    const Graph g = diameter_controlled(600, d);
    EXPECT_EQ(g.node_count(), 600u);
    EXPECT_TRUE(is_connected(g));
    const auto measured = diameter_exact(g);
    // Within a factor ~1.5 of the request (bead rounding).
    EXPECT_GE(measured, d / 2) << "requested " << d;
    EXPECT_LE(measured, d + d / 2 + 3) << "requested " << d;
  }
}

TEST(Generators, InvalidArgumentsThrow) {
  util::Rng rng(21);
  EXPECT_THROW(path(0), std::invalid_argument);
  EXPECT_THROW(cycle(2), std::invalid_argument);
  EXPECT_THROW(grid(0, 3), std::invalid_argument);
  EXPECT_THROW(torus(2, 5), std::invalid_argument);
  EXPECT_THROW(hypercube(0), std::invalid_argument);
  EXPECT_THROW(random_geometric(10, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(diameter_controlled(10, 2), std::invalid_argument);
}

// Every family the experiments use must be connected across seeds — the
// radio model requires it for global propagation.
class GeneratorConnectivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorConnectivity, AllFamiliesConnected) {
  util::Rng rng(GetParam());
  EXPECT_TRUE(is_connected(gnp(200, 0.015, rng)));
  EXPECT_TRUE(is_connected(random_geometric(200, 0.09, rng)));
  EXPECT_TRUE(is_connected(random_recursive_tree(200, rng)));
  EXPECT_TRUE(is_connected(barabasi_albert(200, 2, rng)));
  EXPECT_TRUE(is_connected(chung_lu(200, 2.5, 8.0, rng)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorConnectivity,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace radiocast::graph
