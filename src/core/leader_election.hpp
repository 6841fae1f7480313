// Leader election (Algorithm 6 / Theorem 5.2): nodes self-select as
// candidates with probability Theta(log n / n), candidates draw random
// Theta(log n)-bit IDs, and Compete(C) propagates the highest ID; the node
// holding it is the leader. O(D log n / log D + polylog n) rounds whp —
// matching broadcast, the paper's headline for leader election.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compete.hpp"

namespace radiocast::core {

struct LeaderElectionParams {
  CompeteParams compete{};
  /// Candidate probability multiplier: P[candidate] = candidate_c*log2(n)/n
  /// (clamped to 1). The paper's Theta(log n / n).
  double candidate_c = 2.0;
  /// Candidate ID bit width multiplier: IDs uniform in [0, n^id_bits_c)
  /// (Theta(log n) bits).
  double id_bits_c = 3.0;
};

struct LeaderElectionResult {
  bool success = false;           // all nodes agree & leader is a candidate
  std::uint64_t rounds = 0;
  std::uint64_t precompute_rounds_charged = 0;
  graph::NodeId leader = graph::kInvalidNode;
  std::uint32_t candidate_count = 0;
  bool ids_unique = true;         // all candidate IDs distinct (whp event)
  std::uint32_t agreeing = 0;     // nodes knowing the winning ID at the end
  /// Compete(C)'s final per-node knowledge and engine statistics.
  std::vector<radio::Payload> best;
  PropagationStats main_stats;
  PropagationStats background_stats;
};

LeaderElectionResult elect_leader(const graph::Graph& g,
                                  std::uint32_t diameter,
                                  const LeaderElectionParams& params,
                                  std::uint64_t seed);

}  // namespace radiocast::core
