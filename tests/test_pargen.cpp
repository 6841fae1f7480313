// graph::pargen contracts:
//   * THE determinism promise — every family produces byte-identical CSR
//     for any thread count (the chunk scheme, not the scheduler, owns the
//     randomness).
//   * The gnp skip sampler is the Bernoulli distribution it replaces:
//     edge-count statistics at moderate n, plus the literal fixed-seed
//     reference via gnp_compat.
//   * Scale-free families: BA degree/edge-count sanity, Chung-Lu average
//     degree tracks the target with a heavy tail.
//   * Structural invariants Graph::from_csr does NOT re-check (sorted
//     deduplicated rows, symmetric adjacency) hold for every family.
//   * resolve_threads: flag beats env, invalid env values throw.
#include "graph/pargen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace radiocast::graph::pargen {
namespace {

/// Byte-level CSR equality: offsets and row contents, not just counts.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto ra = a.neighbors(v);
    const auto rb = b.neighbors(v);
    ASSERT_EQ(ra.size(), rb.size()) << "degree of node " << v;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i], rb[i]) << "row " << v << " slot " << i;
    }
  }
}

/// The invariants every generator must uphold (from_csr only checks the
/// cheap structural ones): rows sorted, deduplicated, self-loop free, and
/// every edge present in both directions.
void expect_well_formed(const Graph& g) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto row = g.neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_NE(row[i], v) << "self-loop at node " << v;
      if (i > 0) {
        ASSERT_LT(row[i - 1], row[i])
            << "row " << v << " not sorted/deduplicated";
      }
      ASSERT_TRUE(g.has_edge(row[i], v))
          << "edge " << v << "->" << row[i] << " missing its reverse";
    }
  }
}

/// A generated instance as the experiments consume it: well formed and a
/// single component once connectivity repair has run.
void expect_valid_instance(const Graph& g) {
  expect_well_formed(g);
  EXPECT_TRUE(is_connected(g));
}

// n chosen to span several 4096-node chunks so the parallel paths (and
// the chunk-boundary arithmetic) genuinely execute.
constexpr NodeId kN = 12'000;

TEST(Pargen, GnpByteIdenticalAcrossThreadCounts) {
  const Graph one = gnp(kN, 12.0 / kN, 7, {.threads = 1});
  const Graph four = gnp(kN, 12.0 / kN, 7, {.threads = 4});
  expect_identical(one, four);
  expect_well_formed(one);
  EXPECT_TRUE(is_connected(one));
}

TEST(Pargen, RggByteIdenticalAcrossThreadCounts) {
  const Graph one = random_geometric(kN, 0.02, 7, {.threads = 1});
  const Graph four = random_geometric(kN, 0.02, 7, {.threads = 4});
  expect_identical(one, four);
  expect_well_formed(one);
  EXPECT_TRUE(is_connected(one));
}

TEST(Pargen, BaByteIdenticalAcrossThreadCounts) {
  const Graph one = barabasi_albert(kN, 3, 7, {.threads = 1});
  const Graph four = barabasi_albert(kN, 3, 7, {.threads = 4});
  expect_identical(one, four);
  expect_well_formed(one);
  EXPECT_TRUE(is_connected(one));
}

TEST(Pargen, ChungLuByteIdenticalAcrossThreadCounts) {
  const Graph one = chung_lu(kN, 2.5, 12.0, 7, {.threads = 1});
  const Graph four = chung_lu(kN, 2.5, 12.0, 7, {.threads = 4});
  expect_identical(one, four);
  expect_well_formed(one);
  EXPECT_TRUE(is_connected(one));
}

// Every family, at 1 and 4 generation threads, across sparse settings
// that leave many components for the repair to join and denser ones that
// leave few.
TEST(Pargen, EveryFamilyYieldsValidInstances) {
  for (int threads : {1, 4}) {
    const GenOptions opts{.threads = threads};
    for (std::uint64_t seed : {3, 11}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " seed=" + std::to_string(seed));
      for (double deg : {0.5, 2.0, 12.0}) {
        expect_valid_instance(gnp(5'000, deg / 4'999, seed, opts));
        expect_valid_instance(chung_lu(5'000, 2.5, deg + 1.0, seed, opts));
      }
      for (double radius : {0.005, 0.02}) {
        expect_valid_instance(random_geometric(5'000, radius, seed, opts));
      }
      for (std::uint32_t attach : {1u, 3u}) {
        expect_valid_instance(barabasi_albert(5'000, attach, seed, opts));
      }
    }
  }
}

TEST(Pargen, DifferentSeedsDifferentGraphs) {
  const Graph a = gnp(2'000, 0.01, 1);
  const Graph b = gnp(2'000, 0.01, 2);
  // Same distribution, different draws: identical CSR would mean the
  // seed never reached the samplers.
  bool differs = a.edge_count() != b.edge_count();
  for (NodeId v = 0; !differs && v < a.node_count(); ++v) {
    const auto ra = a.neighbors(v), rb = b.neighbors(v);
    differs = !std::equal(ra.begin(), ra.end(), rb.begin(), rb.end());
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------- gnp distribution

TEST(Pargen, GnpCompatMatchesHandWrittenBernoulliLoop) {
  // gnp_compat IS the textbook loop: one uniform_real per ordered pair
  // (u, v), u < v. Replay it by hand and demand the same edge set (the
  // seed below yields a connected sample, so repair adds nothing).
  constexpr NodeId n = 200;
  constexpr double p = 0.05;
  constexpr std::uint64_t seed = 9;
  const Graph g = gnp(n, p, seed, {.gnp_compat = true});
  util::Rng rng(seed);
  std::uint64_t expected_edges = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.uniform_real() < p) {
        ++expected_edges;
        EXPECT_TRUE(g.has_edge(u, v)) << u << "-" << v;
      }
    }
  }
  ASSERT_TRUE(is_connected(g)) << "pick a connected seed for this test";
  EXPECT_EQ(g.edge_count(), expected_edges);
}

TEST(Pargen, GnpCompatZeroProbabilityIsRepairChain) {
  // p=0 leaves n singletons; the repair policy chains representatives,
  // so exactly n-1 edges appear.
  const Graph g = gnp(50, 0.0, 3, {.gnp_compat = true});
  EXPECT_EQ(g.edge_count(), 49u);
  EXPECT_TRUE(is_connected(g));
  // The chunked sampler repairs identically.
  const Graph skip = gnp(50, 0.0, 3);
  EXPECT_EQ(skip.edge_count(), 49u);
  EXPECT_TRUE(is_connected(skip));
}

TEST(Pargen, GnpSkipSamplerEdgeCountsMatchBernoulliStatistics) {
  // The skip sampler and the Bernoulli loop draw from the same G(n, p):
  // mean edge count over seeds must agree within a few standard errors.
  constexpr NodeId n = 600;
  constexpr double p = 0.02;
  const double pairs = n * (n - 1) / 2.0;
  const double mean = pairs * p;
  const double sd = std::sqrt(pairs * p * (1 - p));
  constexpr int kSeeds = 20;
  double skip_sum = 0.0, compat_sum = 0.0;
  for (int s = 0; s < kSeeds; ++s) {
    // p >> 1/n here, so samples are connected whp and repair edges (which
    // would bias the count up by < #components) essentially never fire.
    skip_sum += static_cast<double>(gnp(n, p, 100 + s).edge_count());
    compat_sum += static_cast<double>(
        gnp(n, p, 200 + s, {.gnp_compat = true}).edge_count());
  }
  const double tol = 4.0 * sd / std::sqrt(static_cast<double>(kSeeds));
  EXPECT_NEAR(skip_sum / kSeeds, mean, tol);
  EXPECT_NEAR(compat_sum / kSeeds, mean, tol);
}

TEST(Pargen, GnpFullProbabilityIsClique) {
  const Graph g = gnp(80, 1.0, 5);
  EXPECT_EQ(g.edge_count(), 80u * 79 / 2);
  for (NodeId v = 0; v < 80; ++v) EXPECT_EQ(g.degree(v), 79u);
}

// ----------------------------------------------------- scale-free families

TEST(Pargen, BaDegreeAndEdgeCountSanity) {
  constexpr NodeId n = 20'000;
  constexpr std::uint32_t m = 4;
  const Graph g = barabasi_albert(n, m, 11);
  // Each node emits m edges; self-loops (bootstrap) and duplicate targets
  // shave a few off, repair may add a few back.
  EXPECT_LE(g.edge_count(), static_cast<std::uint64_t>(n) * m);
  EXPECT_GE(g.edge_count(), static_cast<std::uint64_t>(0.8 * n * m));
  // Preferential attachment: the most-attached node collects far more
  // than the uniform-attachment expectation of ~m log n.
  EXPECT_GT(g.max_degree(), 8 * m * static_cast<std::uint32_t>(std::log(n)));
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_GE(g.degree(v), 1u) << "node " << v << " isolated after repair";
  }
}

TEST(Pargen, ChungLuAverageDegreeTracksTargetWithHeavyTail) {
  constexpr NodeId n = 20'000;
  constexpr double target = 12.0;
  const Graph g = chung_lu(n, 2.5, target, 11);
  EXPECT_NEAR(g.average_degree(), target, 0.2 * target);
  // Power-law weights: the top node dwarfs the average (heavy tail),
  // which a G(n, p) of the same density never produces.
  EXPECT_GT(g.max_degree(), 10 * static_cast<std::uint32_t>(target));
}

TEST(Pargen, ChungLuRejectsDegenerateParameters) {
  EXPECT_THROW(chung_lu(100, 2.0, 12.0, 1), std::invalid_argument);
  EXPECT_THROW(chung_lu(100, 2.5, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(chung_lu(1, 2.5, 12.0, 1), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(100, 0, 1), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(1, 2, 1), std::invalid_argument);
  EXPECT_THROW(gnp(0, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(random_geometric(100, 0.0, 1), std::invalid_argument);
}

// ----------------------------------------------------------- Graph::from_csr

TEST(Pargen, FromCsrValidatesStructure) {
  using V64 = std::vector<std::uint64_t>;
  using VN = std::vector<NodeId>;
  // A valid 2-node graph with one edge.
  const Graph g = Graph::from_csr(V64{0, 1, 2}, VN{1, 0});
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  // Empty offsets, bad front, size mismatch, non-monotone, id range.
  EXPECT_THROW(Graph::from_csr(V64{}, VN{}), std::invalid_argument);
  EXPECT_THROW(Graph::from_csr(V64{1, 2}, VN{0}), std::invalid_argument);
  EXPECT_THROW(Graph::from_csr(V64{0, 1, 2}, VN{1}), std::invalid_argument);
  EXPECT_THROW(Graph::from_csr(V64{0, 2, 1}, VN{1, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_csr(V64{0, 1, 2}, VN{2, 0}),
               std::invalid_argument);
}

// ------------------------------------------------------------ thread knobs

class PargenEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("RADIOCAST_GEN_THREADS"); }
};

TEST_F(PargenEnv, ResolveThreadsPrecedence) {
  // Explicit flag value wins over everything, capped at 64.
  setenv("RADIOCAST_GEN_THREADS", "2", 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1000), 64);
  // Flag absent: the env var decides.
  EXPECT_EQ(resolve_threads(0), 2);
  unsetenv("RADIOCAST_GEN_THREADS");
  // Neither: hardware default, clamped to [1, 8].
  const int fallback = resolve_threads(0);
  EXPECT_GE(fallback, 1);
  EXPECT_LE(fallback, 8);
}

TEST_F(PargenEnv, InvalidEnvValuesThrowInsteadOfDegrading) {
  for (const char* bad : {"junk", "0", "-3", "2.5", ""}) {
    setenv("RADIOCAST_GEN_THREADS", bad, 1);
    EXPECT_THROW(resolve_threads(0), std::invalid_argument)
        << "RADIOCAST_GEN_THREADS='" << bad << "'";
  }
}

TEST_F(PargenEnv, EnvDrivesGenerationWithoutChangingBytes) {
  const Graph base = gnp(2'000, 0.005, 13, {.threads = 1});
  setenv("RADIOCAST_GEN_THREADS", "4", 1);
  const Graph via_env = gnp(2'000, 0.005, 13);  // threads = 0 -> env
  expect_identical(base, via_env);
}

}  // namespace
}  // namespace radiocast::graph::pargen
