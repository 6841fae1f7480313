// Partition(beta) invariants: Section 2.1's clustering definition plus the
// quantitative guarantees of Lemma 2.1 and Theorem 2.2 (statistical smoke
// versions; the full sweeps are in bench_partition / bench_cluster_distance).
#include "cluster/exponential_shifts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cluster/partition_stats.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/pargen.hpp"
#include "schedule/bfs_schedule.hpp"
#include "sim/instances.hpp"
#include "util/math.hpp"

namespace radiocast::cluster {
namespace {

struct Family {
  const char* name;
  graph::Graph (*make)(util::Rng&);
};

graph::Graph make_grid(util::Rng&) { return graph::grid(20, 20); }
graph::Graph make_rgg(util::Rng& rng) {
  return graph::random_geometric(400, 0.08, rng);
}
graph::Graph make_gnp(util::Rng& rng) { return graph::gnp(400, 0.015, rng); }
graph::Graph make_poc(util::Rng&) { return graph::path_of_cliques(40, 10); }
graph::Graph make_tree(util::Rng& rng) {
  return graph::random_recursive_tree(400, rng);
}
// Dense families, whose first layers settle most of the graph at once
// (on gnp-deg16 the partition offers bottom-up in about one layer).
graph::Graph make_clique(util::Rng&) { return graph::clique(64); }
graph::Graph make_star(util::Rng&) { return graph::star(201); }
graph::Graph make_gnp_deg16(util::Rng& rng) {
  return graph::gnp(1024, 16.0 / 1023, rng);
}

/// Checks that hold for any exact MPX implementation, whatever its data
/// structure. `linked(u, w)` is the partition's adjacency (both ends in
/// scope, same region).
///  * Parent rule: a non-centre's parent is its smallest-id linked
///    neighbour in the same cluster one hop closer to the centre.
///  * Max-rule certificate: with key(v) = delta_{center(v)} - dist(v), no
///    node's own shift beats its key, and no linked neighbour offers a
///    better one (key(w) >= key(u) - 1 on every linked edge).
template <typename Linked>
void expect_mpx_rules(const graph::Graph& g, const Partition& p,
                      Linked linked) {
  constexpr double kSlack = 1e-9;
  auto key = [&](graph::NodeId v) {
    return p.delta[p.center[v]] - static_cast<double>(p.dist_to_center[v]);
  };
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (!p.in_scope(v)) continue;
    EXPECT_GE(key(v), p.delta[v] - kSlack) << "node " << v;
    graph::NodeId want = v;
    for (graph::NodeId u : g.neighbors(v)) {
      if (!linked(u, v)) continue;
      EXPECT_GE(key(v), key(u) - 1.0 - kSlack) << "edge " << u << "-" << v;
      if (want == v && p.center[u] == p.center[v] &&
          p.dist_to_center[u] + 1 == p.dist_to_center[v]) {
        want = u;  // rows are sorted: the first match is the smallest id
      }
    }
    EXPECT_EQ(p.parent[v], want) << "node " << v;
  }
}

constexpr Family kFamilies[] = {
    {"grid", make_grid},     {"rgg", make_rgg},
    {"gnp", make_gnp},       {"cliques", make_poc},
    {"tree", make_tree},     {"clique", make_clique},
    {"star", make_star},     {"gnp-deg16", make_gnp_deg16},
};
constexpr double kBetas[] = {0.05, 0.2, 0.5};

class PartitionInvariants
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PartitionInvariants, DefinitionHolds) {
  const auto [fam, beta] = GetParam();
  util::Rng rng(1000 + fam);
  const graph::Graph g = kFamilies[fam].make(rng);
  const Partition p = partition(g, beta, rng);
  // Every node is assigned.
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_TRUE(p.in_scope(v));
  }
  // Section 2.1: centre-of-anyone is centre-of-itself.
  EXPECT_TRUE(centers_consistent(p));
  // Section 2.1: the subgraph of each cluster is connected.
  EXPECT_TRUE(clusters_connected(g, p));
  // dist_to_center is the true intra-cluster BFS distance.
  EXPECT_TRUE(distances_consistent(g, p));
  // Tree parents are the smallest-id neighbours one hop up in the same
  // cluster, and the MPX max rule holds.
  expect_mpx_rules(g, p, [](graph::NodeId, graph::NodeId) { return true; });
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndBetas, PartitionInvariants,
    ::testing::Combine(::testing::Range(0, static_cast<int>(
                                               std::size(kFamilies))),
                       ::testing::ValuesIn(kBetas)));

// The invariant that lets PropagationEngine's pipelined blocking pass skip
// arcs: every TreeSchedule parent and child of a node has the node's
// centre, so a hop's receiver always shares its transmitter's centre. Fine
// clusters built inside coarse regions also keep their centre in the
// node's region. Checked over plain, masked (about 1 node in 5 out) and
// region partitions of every invariant family and beta.
TEST(Schedule, TreeNeighboursShareTheCentre) {
  auto expect_shared_centres = [](const graph::Graph& g, const Partition& p) {
    const schedule::TreeSchedule s(g, p, schedule::ScheduleMode::kPipelined);
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      if (!s.in_scope(v)) continue;
      EXPECT_EQ(s.center(s.parent(v)), s.center(v)) << "node " << v;
      for (const graph::NodeId c : s.children(v)) {
        EXPECT_EQ(s.center(c), s.center(v)) << "node " << v << " child " << c;
      }
    }
  };
  for (std::size_t fam = 0; fam < std::size(kFamilies); ++fam) {
    util::Rng rng(3000 + fam);
    const graph::Graph g = kFamilies[fam].make(rng);
    const graph::NodeId n = g.node_count();
    std::vector<std::uint8_t> mask(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      mask[v] = util::mix_seed(77, v) % 5 != 0 ? 1 : 0;
    }
    for (const double beta : kBetas) {
      SCOPED_TRACE(std::string(kFamilies[fam].name) +
                   " beta=" + std::to_string(beta));
      expect_shared_centres(g, partition(g, beta, rng));
      expect_shared_centres(g, partition_masked(g, beta, mask, rng));
      const Partition coarse = partition(g, beta / 4, rng);
      const Partition fine = partition_regions(g, beta, coarse.center, rng);
      expect_shared_centres(g, fine);
      for (graph::NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(coarse.center[fine.center[v]], coarse.center[v])
            << "node " << v;
      }
    }
  }
}

TEST(Partition, LargeBetaMakesSingletonHeavyClustering) {
  // beta -> infinity: delta ~ 0, every node is its own centre whp.
  util::Rng rng(5);
  const graph::Graph g = graph::grid(15, 15);
  const Partition p = partition(g, 50.0, rng);
  std::uint32_t centers = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (p.is_center(v)) ++centers;
  }
  EXPECT_GT(centers, g.node_count() / 2);
}

TEST(Partition, SmallBetaMakesFewClusters) {
  util::Rng rng(6);
  const graph::Graph g = graph::grid(15, 15);
  const Partition p = partition(g, 0.01, rng);
  const auto dense = p.dense_ids();
  EXPECT_LT(dense.center_of_id.size(), 10u);
}

TEST(Partition, CutFractionScalesWithBeta) {
  // Lemma 2.1: P[edge cut] = O(beta). Check the monotone trend and the
  // constant on a grid (large sample of edges).
  util::Rng rng(7);
  const graph::Graph g = graph::grid(40, 40);
  double prev = 0.0;
  for (double beta : {0.05, 0.1, 0.2, 0.4}) {
    double sum = 0;
    for (int trial = 0; trial < 5; ++trial) {
      sum += cut_fraction(g, partition(g, beta, rng));
    }
    const double frac = sum / 5;
    EXPECT_GE(frac, prev * 0.7);  // roughly monotone in beta
    EXPECT_LE(frac, 4.0 * beta);  // O(beta) with small constant
    prev = frac;
  }
}

TEST(Partition, StrongRadiusWithinLemmaBound) {
  // Lemma 2.1: strong diameter O(log n / beta) whp. Radius <= diameter.
  util::Rng rng(8);
  const graph::Graph g = graph::grid(30, 30);
  const double logn = util::safe_log2(g.node_count());
  for (double beta : {0.1, 0.3}) {
    const Partition p = partition(g, beta, rng);
    for (const auto& info : cluster_infos(g, p)) {
      EXPECT_LE(info.strong_radius, 4.0 * logn / beta) << "beta=" << beta;
      EXPECT_LE(info.strong_diameter_lb, 8.0 * logn / beta);
    }
  }
}

TEST(Partition, DeterministicGivenSeed) {
  util::Rng rng1(9), rng2(9);
  const graph::Graph g = graph::grid(10, 10);
  const Partition a = partition(g, 0.3, rng1);
  const Partition b = partition(g, 0.3, rng2);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(Partition, InvalidBetaThrows) {
  util::Rng rng(10);
  const graph::Graph g = graph::path(4);
  EXPECT_THROW(partition(g, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(partition(g, -1.0, rng), std::invalid_argument);
}

TEST(PartitionMasked, RespectsMask) {
  util::Rng rng(11);
  const graph::Graph g = graph::path(10);
  std::vector<std::uint8_t> mask(10, 1);
  mask[4] = 0;  // cut the path in the middle
  const Partition p = partition_masked(g, 0.2, mask, rng);
  EXPECT_FALSE(p.in_scope(4));
  // Clusters cannot span the masked node.
  for (graph::NodeId v = 0; v < 4; ++v) {
    EXPECT_LE(p.center[v], 3u);
  }
  for (graph::NodeId v = 5; v < 10; ++v) {
    EXPECT_GE(p.center[v], 5u);
  }
  expect_mpx_rules(g, p, [&](graph::NodeId u, graph::NodeId v) {
    return mask[u] && mask[v];
  });
}

TEST(PartitionMasked, MpxRulesHoldOnRandomMask) {
  util::Rng rng(17);
  const graph::Graph g = graph::random_geometric(500, 0.08, rng);
  std::vector<std::uint8_t> mask(g.node_count());
  for (auto& m : mask) m = rng.bernoulli(0.8) ? 1 : 0;
  for (double beta : {1.0, 0.2, 0.02}) {
    const Partition p = partition_masked(g, beta, mask, rng);
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(p.in_scope(v), mask[v] != 0);
    }
    expect_mpx_rules(g, p, [&](graph::NodeId u, graph::NodeId v) {
      return mask[u] && mask[v];
    });
  }
}

TEST(PartitionMasked, SizeMismatchThrows) {
  util::Rng rng(12);
  const graph::Graph g = graph::path(5);
  std::vector<std::uint8_t> mask(4, 1);
  EXPECT_THROW(partition_masked(g, 0.2, mask, rng), std::invalid_argument);
}

TEST(PartitionRegions, FineClustersNeverCrossRegions) {
  // Algorithm 1 step 3: fine clusterings within coarse clusters.
  util::Rng rng(13);
  const graph::Graph g = graph::grid(25, 25);
  const Partition coarse = partition(g, 0.05, rng);
  const Partition fine = partition_regions(g, 0.5, coarse.center, rng);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    ASSERT_TRUE(fine.in_scope(v));
    // v's fine centre lies in v's coarse cluster.
    EXPECT_EQ(coarse.center[fine.center[v]], coarse.center[v]);
  }
  EXPECT_TRUE(centers_consistent(fine));
  EXPECT_TRUE(distances_consistent(g, fine));
  expect_mpx_rules(g, fine, [&](graph::NodeId u, graph::NodeId v) {
    return coarse.center[u] == coarse.center[v];
  });
}

TEST(PartitionRegions, SizeMismatchThrows) {
  util::Rng rng(14);
  const graph::Graph g = graph::path(5);
  std::vector<graph::NodeId> region(4, 0);
  EXPECT_THROW(partition_regions(g, 0.2, region, rng),
               std::invalid_argument);
}

TEST(Partition, DenseIdsAreDenseAndConsistent) {
  util::Rng rng(15);
  const graph::Graph g = graph::grid(12, 12);
  const Partition p = partition(g, 0.2, rng);
  const auto d = p.dense_ids();
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const auto id = d.id_of_node[v];
    ASSERT_LT(id, d.center_of_id.size());
    EXPECT_EQ(d.center_of_id[id], p.center[v]);
  }
  // Every dense id used at least once (its centre maps to it).
  for (std::size_t i = 0; i < d.center_of_id.size(); ++i) {
    EXPECT_EQ(d.id_of_node[d.center_of_id[i]], i);
  }
}

TEST(Partition, PrecomputeRoundsFormula) {
  // O(log^3 n / beta): doubling 1/beta doubles the cost.
  const auto r1 = precompute_rounds(1024, 0.1);
  const auto r2 = precompute_rounds(1024, 0.05);
  EXPECT_NEAR(static_cast<double>(r2) / r1, 2.0, 0.01);
  EXPECT_EQ(precompute_rounds(1024, 1.0), 1000u);  // log2^3(1024) = 1000
}

TEST(Theorem22Smoke, ExpectedDistanceWithinBoundForMostJ) {
  // Scaled-down Theorem 2.2 check: for a majority of j in the range, the
  // mean distance to centre is within a constant of log n/(beta log D).
  util::Rng rng(16);
  const graph::Graph g = graph::path_of_cliques(64, 8);  // D ~ 190
  const auto d = graph::diameter_double_sweep(g);
  const double logn = util::safe_log2(g.node_count());
  const double logd = util::safe_log2(d);
  const std::uint32_t j_lo = 1;
  const std::uint32_t j_hi = std::max<std::uint32_t>(
      j_lo, static_cast<std::uint32_t>(0.4 * logd));
  std::uint32_t good = 0, total = 0;
  for (std::uint32_t j = j_lo; j <= j_hi; ++j) {
    const double beta = std::ldexp(1.0, -static_cast<int>(j));
    double mean = 0;
    constexpr int kTrials = 8;
    for (int t = 0; t < kTrials; ++t) {
      mean += mean_dist_to_center(partition(g, beta, rng));
    }
    mean /= kTrials;
    ++total;
    if (mean <= 8.0 * logn / (beta * logd)) ++good;
  }
  // Theorem 2.2 promises probability >= 0.55 over j; with constant 8 the
  // scaled-down version should pass for at least half the j values.
  EXPECT_GE(2 * good, total);
}

// Exact reference: MPX computed from its definition, by brute force. A
// BFS from every in-scope node c over the linked edges offers each node v
// the key delta_c - d(c, v), with the subtraction chained one 1.0 per hop
// as the partition chains it. v is its own centre when its shift is at
// least its best offer. Otherwise its parent is the linked neighbour of
// largest key, ties going to the smaller centre and then the smaller id.
// Nodes resolve in decreasing key order, so a parent resolves before its
// children. The shifts are drawn exactly as the partition draws them.
template <typename InScope, typename Linked>
Partition reference_partition(const graph::Graph& g, double beta,
                              InScope in_scope, Linked linked,
                              util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::uint32_t kUnreached = ~std::uint32_t{0};
  const graph::NodeId n = g.node_count();
  Partition p;
  p.beta = beta;
  p.center.assign(n, graph::kInvalidNode);
  p.dist_to_center.assign(n, 0);
  p.parent.assign(n, graph::kInvalidNode);
  p.delta.assign(n, 0.0);
  std::vector<graph::NodeId> scope;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!in_scope(v)) continue;
    p.delta[v] = rng.exponential(beta);
    scope.push_back(v);
  }

  std::vector<double> offered(n, -kInf);
  std::vector<std::uint32_t> dist(n);
  for (graph::NodeId c : scope) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[c] = 0;
    std::vector<graph::NodeId> frontier{c}, next;
    for (double k = p.delta[c] - 1.0; !frontier.empty(); k -= 1.0) {
      next.clear();
      for (graph::NodeId u : frontier) {
        for (graph::NodeId w : g.neighbors(u)) {
          if (!linked(u, w) || dist[w] != kUnreached) continue;
          dist[w] = dist[u] + 1;
          offered[w] = std::max(offered[w], k);
          next.push_back(w);
        }
      }
      frontier.swap(next);
    }
  }

  std::vector<double> key(n, -kInf);
  for (graph::NodeId v : scope) key[v] = std::max(p.delta[v], offered[v]);
  std::vector<graph::NodeId> order = scope;
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     return key[a] > key[b];
                   });
  for (graph::NodeId v : order) {
    if (p.delta[v] >= offered[v]) {
      p.center[v] = v;
      p.parent[v] = v;
      continue;
    }
    double best_key = -kInf;
    for (graph::NodeId u : g.neighbors(v)) {
      if (linked(u, v)) best_key = std::max(best_key, key[u]);
    }
    graph::NodeId best = graph::kInvalidNode;
    for (graph::NodeId u : g.neighbors(v)) {
      if (!linked(u, v) || key[u] != best_key) continue;
      if (best == graph::kInvalidNode || p.center[u] < p.center[best]) {
        best = u;  // rows are sorted: on equal centres the first id stays
      }
    }
    EXPECT_EQ(best_key - 1.0, key[v]) << "reference: node " << v;
    p.parent[v] = best;
    p.center[v] = p.center[best];
    p.dist_to_center[v] = p.dist_to_center[best] + 1;
  }
  return p;
}

void expect_same_partition(const Partition& got, const Partition& want,
                           const std::string& what) {
  EXPECT_EQ(got.center, want.center) << what;
  EXPECT_EQ(got.parent, want.parent) << what;
  EXPECT_EQ(got.dist_to_center, want.dist_to_center) << what;
  EXPECT_EQ(got.delta, want.delta) << what;
}

TEST(PartitionReference, MatchesBruteForceMpx) {
  struct Case {
    const char* name;
    graph::Graph (*make)();
  };
  // Dense graphs, where one layer settles most of the graph (gnp offers
  // bottom-up in about one layer per partition), and a path and a clique
  // path, whose layers settle a few nodes each and offer top-down.
  const Case kCases[] = {
      {"clique64", [] { return graph::clique(64); }},
      {"star200", [] { return graph::star(201); }},
      {"gnp1024-deg16",
       [] { return graph::pargen::gnp(1024, 16.0 / 1023, 51); }},
      {"path", [] { return graph::path(200); }},
      {"cliquepath", [] { return sim::make_cliquepath_instance(256, 64).g; }},
  };
  auto everywhere = [](graph::NodeId) { return true; };
  auto always = [](graph::NodeId, graph::NodeId) { return true; };
  std::uint64_t seed = 0;
  for (const Case& c : kCases) {
    const graph::Graph g = c.make();
    const graph::NodeId n = g.node_count();
    std::vector<std::uint8_t> mask(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      mask[v] = util::mix_seed(77, v) % 5 != 0 ? 1 : 0;
    }
    auto masked = [&](graph::NodeId v) { return mask[v] != 0; };
    auto mask_linked = [&](graph::NodeId u, graph::NodeId v) {
      return mask[u] && mask[v];
    };
    for (double beta : {2.0, 0.5, 0.1, 0.02}) {
      const std::string what =
          std::string(c.name) + " beta=" + std::to_string(beta);
      util::Rng rng(++seed), ref(seed);
      expect_same_partition(
          partition(g, beta, rng),
          reference_partition(g, beta, everywhere, always, ref),
          what + " whole graph");
      EXPECT_EQ(rng(), ref());
      expect_same_partition(
          partition_masked(g, beta, mask, rng),
          reference_partition(g, beta, masked, mask_linked, ref),
          what + " masked");
      EXPECT_EQ(rng(), ref());
      // Regions as Hierarchy makes them: the centres of a coarser
      // partition, here with the masked-out nodes out of scope.
      util::Rng coarse_rng(1000 + seed);
      std::vector<graph::NodeId> region =
          partition(g, beta / 4, coarse_rng).center;
      for (graph::NodeId v = 0; v < n; ++v) {
        if (!mask[v]) region[v] = graph::kInvalidNode;
      }
      auto regioned = [&](graph::NodeId v) {
        return region[v] != graph::kInvalidNode;
      };
      auto region_linked = [&](graph::NodeId u, graph::NodeId v) {
        return region[u] == region[v] && region[u] != graph::kInvalidNode;
      };
      expect_same_partition(
          partition_regions(g, beta, region, rng),
          reference_partition(g, beta, regioned, region_linked, ref),
          what + " regions");
      EXPECT_EQ(rng(), ref());
    }
  }
}

// Byte-level pin of Partition(beta): an FNV-1a digest of centre, depth,
// parent, shift and the caller's next RNG draw for plain, masked and
// region partitions over seven graph families at four betas. Any change to
// the shift draw order, the centre tie rule or the parent tie rule moves a
// digest; an equivalent re-implementation of the clustering does not.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

void add_partition(Fnv1a& f, const Partition& p, util::Rng& rng) {
  for (graph::NodeId v = 0; v < p.node_count(); ++v) {
    f.add(p.center[v]);
    f.add(p.dist_to_center[v]);
    f.add(p.parent[v]);
    f.add(std::bit_cast<std::uint64_t>(p.delta[v]));
  }
  f.add(rng());
}

std::string hex(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

TEST(Partition, GoldenDigestAcrossFamilies) {
  struct Golden {
    const char* name;
    graph::Graph (*make)();
    std::uint64_t digest;
  };
  namespace pg = graph::pargen;
  const Golden kGolden[] = {
      {"gnp", [] { return pg::gnp(600, 10.0 / 600, 41); },
       0xd61cb6d3b407e7d2ULL},
      {"rgg", [] { return pg::random_geometric(600, 0.07, 42); },
       0x9d1ead0b0f7edb43ULL},
      {"ba", [] { return pg::barabasi_albert(600, 3, 43); },
       0xccb14889821b9601ULL},
      {"chung-lu", [] { return pg::chung_lu(600, 2.5, 8.0, 44); },
       0xff4b8a9eaddd6f71ULL},
      {"grid", [] { return graph::grid(20, 20); }, 0xe4b5506e200e3077ULL},
      {"cliquepath", [] { return sim::make_cliquepath_instance(256, 64).g; },
       0x4386d6609c12f20aULL},
      {"tree",
       [] {
         util::Rng rng(45);
         return graph::random_recursive_tree(400, rng);
       },
       0x67dee8cfe68efc31ULL},
  };
  for (const Golden& fam : kGolden) {
    const graph::Graph g = fam.make();
    const graph::NodeId n = g.node_count();
    // A fixed mask (about 1 node in 5 out) and fixed regions (three
    // interleaved classes plus out-of-scope nodes), both cutting edges.
    std::vector<std::uint8_t> mask(n);
    std::vector<graph::NodeId> region(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t h = util::mix_seed(99, v);
      mask[v] = h % 5 != 0 ? 1 : 0;
      region[v] = h % 7 == 0 ? graph::kInvalidNode
                             : static_cast<graph::NodeId>((h >> 8) % 3);
    }
    Fnv1a f;
    std::uint64_t seed = 0;
    for (double beta : {1.0, 0.25, 0.0625, 0.005}) {
      util::Rng rng(++seed);
      add_partition(f, partition(g, beta, rng), rng);
      add_partition(f, partition_masked(g, beta, mask, rng), rng);
      add_partition(f, partition_regions(g, beta, region, rng), rng);
    }
    EXPECT_EQ(hex(f.h), hex(fam.digest)) << fam.name;
  }
}

}  // namespace
}  // namespace radiocast::cluster
