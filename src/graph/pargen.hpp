// Parallel streaming graph generation: CSR directly, no edge lists.
//
// The sweep subsystem wants n = 10^6 grid points; the GraphBuilder path
// (materialise an edge list, sort, dedup, scatter) is single-threaded and
// allocates ~3x the final graph. The generators here instead produce the
// final CSR arrays in a two-pass chunked scheme, the KaGen idiom:
//
//   * The node/index space is cut into K CHUNKS, where K depends only on
//     the instance size — never on the thread count. Chunk c draws from an
//     RNG stream seeded by mix_seed(seed, c), so the emitted edge multiset
//     is a pure function of (family parameters, seed): output is
//     byte-identical for any --gen-threads value (pinned by
//     tests/test_pargen.cpp and a CI diff).
//   * Pass 1 runs every chunk's sampler and counts degrees (atomic,
//     commutative — scheduling cannot change the totals); a prefix sum
//     turns the counts into the final offsets array.
//   * Pass 2 re-runs the SAME sampler streams and scatters both endpoints
//     through per-node atomic cursors into the final adjacency array.
//     Re-sampling instead of buffering is the streaming part: peak memory
//     is the output CSR plus O(n), not an edge list.
//   * Pass 3 sorts each row (normalising whatever interleaving pass 2
//     ran with) and compacts duplicate edges (only scale-free families
//     produce any).
//
// Every family returns a connected graph: when the sample is disconnected,
// components are numbered in order of their smallest node and one edge
// joins the smallest nodes of components c-1 and c (adds #components - 1
// edges; for rgg a repair edge may be longer than the radius). These are
// the only samplers of the four families; graph/generators.hpp's Rng&
// entry points delegate here.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace radiocast::graph::pargen {

struct GenOptions {
  /// Generation worker threads. 0 = the RADIOCAST_GEN_THREADS environment
  /// variable when set (invalid values throw — see resolve_threads), else
  /// a hardware-derived default. Output never depends on this value.
  int threads = 0;
  /// gnp only: run the literal O(n^2) Bernoulli reference loop (one
  /// uniform_real draw per pair (u, v), u < v, lexicographic order, from
  /// util::Rng(seed)) instead of the chunked skip sampler. Exists so the
  /// skip sampler's distribution stays testable against the textbook
  /// definition at small n; do not use it at scale.
  bool gnp_compat = false;
};

/// Resolves the generation worker count: `threads` > 0 wins (capped at
/// 64), else the RADIOCAST_GEN_THREADS env var (a set-but-invalid value —
/// junk, zero, negative — throws std::invalid_argument instead of
/// silently degrading), else hardware_concurrency clamped to [1, 8].
int resolve_threads(int threads);

/// Erdos-Renyi G(n, p) via per-chunk geometric edge skipping over the
/// upper-triangle index space: expected work O(n + m), chunkable.
Graph gnp(NodeId n, double p, std::uint64_t seed,
          const GenOptions& opts = {});

/// Random geometric graph (unit square, connect iff distance <= radius)
/// with a radius-sized cell grid: each chunk owns a band of cell rows and
/// scans only neighbouring-cell pairs, O(n + m) expected for uniform
/// points.
Graph random_geometric(NodeId n, double radius, std::uint64_t seed,
                       const GenOptions& opts = {});

/// Barabasi-Albert preferential attachment, `attach` edges per node, via
/// the Batagelj-Brandes edge array resolved by HASH RETRACING: target(j)
/// re-derives the uniform draw of any earlier edge from (seed, j) instead
/// of reading a shared array, so every edge is independently computable —
/// embarrassingly parallel and seed-deterministic (the KaGen BA idiom).
Graph barabasi_albert(NodeId n, std::uint32_t attach, std::uint64_t seed,
                      const GenOptions& opts = {});

/// Chung-Lu random graph with a power-law weight sequence
/// w_i ~ (n/(i+1))^(1/(exponent-1)), scaled so the expected average degree
/// is `avg_deg`; edge (u, v) appears with probability min(1, w_u w_v / S).
/// Sampled with the Miller-Hagberg skip algorithm (weights are sorted
/// descending, so a geometric skip under the current upper bound plus a
/// thinning accept is exact), chunked over source nodes. exponent > 2.
Graph chung_lu(NodeId n, double exponent, double avg_deg, std::uint64_t seed,
               const GenOptions& opts = {});

}  // namespace radiocast::graph::pargen
