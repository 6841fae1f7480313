// Compete(S) — the paper's central primitive (Section 3, Theorem 4.1).
//
// Input: a source set S, each source holding an integer message. Guarantee:
// with high probability, upon completion every node knows the highest
// message in S, within O(D log n / log D + |S| D^0.125 + polylog n) rounds.
//
// The implementation runs the two concurrent processes of Section 3:
//   * main process (Algorithm 1): coarse clustering (beta = D^-0.5) for
//     shared randomness, D^0.2 fine clusterings per j (beta = 2^-j,
//     j random in [0.01 log D, 0.1 log D]), per-coarse-cluster random
//     sequences of fine clusterings, Intra-Cluster Propagation curtailed at
//     O(log n / (beta log D)) hops;
//   * background process (Algorithm 2): fixed beta = D^-0.1 fine
//     clusterings over the whole network, round-robin, curtailed at
//     O(log n / beta) hops — "papering over the cracks" at coarse-cluster
//     boundaries;
// interleaved 1:1, each with its own Algorithm 4 Decay background stream
// for risky boundary nodes.
//
// Round accounting: `rounds` counts the simulated propagation rounds across
// all interleaved streams; the distributed precomputation (clusterings,
// schedules, sequence dissemination — Algorithm 1 steps 1-6) is charged
// analytically in `precompute_rounds_charged` (DESIGN.md fidelity note 1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/propagation.hpp"
#include "graph/graph.hpp"
#include "radio/model.hpp"

namespace radiocast::core {

struct CompeteSource {
  graph::NodeId node = 0;
  /// Any value but radio::kNoPayload, the "nothing learnt" sentinel
  /// (compete and compete_batched throw std::invalid_argument on it).
  radio::Payload value = 0;
};

struct CompeteResult {
  /// True iff every node knew the highest source message at termination.
  bool success = false;
  /// Propagation rounds simulated (all four interleaved streams).
  std::uint64_t rounds = 0;
  /// Analytically charged precomputation cost (Lemma 2.1 + Lemma 2.3).
  std::uint64_t precompute_rounds_charged = 0;
  /// The highest source message (the value everyone must learn).
  radio::Payload winner = radio::kNoPayload;
  /// Nodes that knew the winner at termination.
  std::uint32_t informed = 0;
  /// Final per-node knowledge (kNoPayload where nothing was learnt).
  std::vector<radio::Payload> best;
  /// Main and background engine statistics.
  PropagationStats main_stats;
  PropagationStats background_stats;
};

/// Runs Compete(S) on `g` (connected; `diameter` is the D the nodes know).
/// The run is deterministic in (g, sources, params, seed).
CompeteResult compete(const graph::Graph& g, std::uint32_t diameter,
                      const std::vector<CompeteSource>& sources,
                      const CompeteParams& params, std::uint64_t seed);

}  // namespace radiocast::core
