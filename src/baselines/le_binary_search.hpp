// Classical leader election by network-wide binary search over the ID
// space, using (multi-source) broadcast as a subroutine — the reduction of
// Bar-Yehuda-Goldreich-Itai [2] the paper describes in Section 1.3:
// O(T_BC log n) rounds where T_BC is the broadcast time.
//
// Protocol: candidates self-select w.p. Theta(log n / n) and draw random
// B = Theta(log n)-bit IDs. For bit b = B-1 .. 0 the network tests "does a
// surviving candidate exist whose ID has bit b set?" by having exactly
// those candidates run a multi-source Decay broadcast for a fixed budget of
// T_BC rounds; every node that hears anything records '1' for that bit.
// Candidates whose bit disagrees with the outcome drop out. After B phases
// all nodes hold the maximum candidate ID and exactly one candidate
// recognises it as its own.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace radiocast::baselines {

struct BinarySearchLeParams {
  /// Candidate probability multiplier (Theta(log n / n)).
  double candidate_c = 2.0;
  /// ID bit width (0 = auto: 2*ceil(log2 n), capped at 30).
  std::uint32_t id_bits = 0;
  /// Per-phase broadcast budget multiplier: budget = phase_c * bound_crkp.
  double phase_c = 3.0;
  /// Which Decay preset carries each phase (CR by default; BGI optional).
  bool use_bgi = false;
  std::uint64_t max_rounds = 100'000'000;
};

struct BinarySearchLeResult {
  bool success = false;          // unique leader + global agreement
  std::uint64_t rounds = 0;
  graph::NodeId leader = graph::kInvalidNode;
  std::uint32_t candidate_count = 0;
  std::uint32_t phases = 0;
};

BinarySearchLeResult binary_search_leader_election(
    const graph::Graph& g, std::uint32_t diameter,
    const BinarySearchLeParams& params, std::uint64_t seed);

}  // namespace radiocast::baselines
