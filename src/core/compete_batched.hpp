// Lane-batched Monte-Carlo drivers for the Decay-relay Compete primitive:
// run N independent seeded replications of the full protocol through the
// lanes of one radio::LaneExecutor, so (with a BatchNetwork on the
// bitslice backend) up to 64 seeds share every CSR traversal instead of
// re-walking the adjacency once per seed. A 1-lane radio::Network runs a
// single replication through the same code.
//
// The protocol is the Compete semantics restricted to Decay relaying —
// the one implementation of the BGI and CR/KP yardsticks: every informed
// node relays the highest message it knows via synchronized Decay,
// densities cycling over 2^-1 .. 2^-cycle_depth, with (CR) one
// full-depth cycle every full_cycle_every cycles to clear congested
// spots, until every node knows max(S) or the round budget runs out.
// Each lane carries its own knowledge, its own RNG stream, and its own
// termination clock. What the medium relays depends on the source values:
//
//   * single-valued (every source carries max(S): a broadcast, the BGI/CR
//     rows, a binary-search LE phase) — every informed node holds max(S)
//     in every lane it is informed in, so transmitters relay one shared,
//     lane-invariant plane of n copies of it; the bitslice medium proves
//     each round constant and const-folds it, with no sender recovery,
//     into one shared scratch plane, and best[] is read off the per-lane
//     informed masks;
//   * multi-valued — transmitters relay their node-major best planes, so a
//     node can relay different values in different lanes, and the medium
//     recovers each delivery's sender to fold its payload.
//
// The best[] planes come out byte-identical either way. Completion is
// tracked exactly: a lane stops in the round its last node learns max(S),
// so `rounds` is the exact completion round. Source values must not be
// radio::kNoPayload (std::invalid_argument).
//
// Determinism contract (pinned by tests/test_protocol_lanes.cpp): lane l
// of compete_batched(..., seeds) is byte-identical — success, rounds,
// informed count, transmission/delivery counters, and the whole best[]
// plane — to a 1-lane run over a scalar Network with seeds[l]. The
// paper's clustering-based Compete main process (core/compete.hpp)
// remains scalar.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compete.hpp"
#include "graph/graph.hpp"
#include "radio/lane_executor.hpp"
#include "radio/medium.hpp"

namespace radiocast::core {

struct BatchedCompeteParams {
  /// Decay density cycle depth: probabilities cycle over 2^-1 ..
  /// 2^-cycle_depth. 0 = auto (ceil(log2 n), the BGI rule).
  std::uint32_t cycle_depth = 0;
  /// Every `full_cycle_every` cycles, run one full-depth cycle (CR's
  /// handling of congested spots; 0 = never).
  std::uint32_t full_cycle_every = 0;
  /// Stop a lane after this many rounds even if nodes remain uninformed.
  std::uint64_t max_rounds = 1'000'000;
};

/// BGI (Bar-Yehuda-Goldreich-Itai 1992): full-depth cycles over
/// 2^-1 .. 2^-ceil(log2 n). O((D + log n) log n) rounds whp.
BatchedCompeteParams bgi_params(std::uint32_t n);

/// CR/KP (Czumaj-Rytter 2003 / Kowalski-Pelc 2005 style): cycles only over
/// 2^-1 .. 2^-(ceil(log2(n/D)) + 2), since the expected per-layer
/// congestion is n/D, plus a full-depth cycle every 8 cycles for congested
/// spots. O(D log(n/D) + log^2 n) rounds whp — the best possible without
/// spontaneous transmissions.
BatchedCompeteParams cr_params(std::uint32_t n, std::uint32_t diameter);

/// One lane's (= one seed's) replication result.
struct CompeteLaneResult {
  bool success = false;      // every node knew max(S) at termination
  std::uint64_t rounds = 0;  // physical rounds this lane executed
  std::uint32_t informed = 0;
  radio::Payload winner = radio::kNoPayload;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  /// Final per-node knowledge (kNoPayload where nothing was learnt).
  std::vector<radio::Payload> best;
};

/// Runs seeds.size() independent replications of Decay-relay Compete(S)
/// through the lanes of `net` (seeds.size() must be in [1, net.lanes()]).
/// Lane l is fully determined by (topology, sources, params, seeds[l]).
std::vector<CompeteLaneResult> compete_batched(
    radio::LaneExecutor& net, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds);

/// Convenience: owns a BatchNetwork over `g` with seeds.size() lanes on
/// the given backend (bitslice = one traversal per round for all seeds);
/// `recovery` pins the backend's sender-recovery path (results are
/// identical for every setting — only the cost moves).
std::vector<CompeteLaneResult> compete_batched(
    const graph::Graph& g, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium = radio::MediumKind::kBitslice,
    radio::RecoveryStrategy recovery = radio::RecoveryStrategy::kAuto);

/// Broadcast = Compete with S = {source}: N seeded replications of the
/// Decay-relay broadcast of `message` from `source`.
std::vector<CompeteLaneResult> broadcast_batched(
    const graph::Graph& g, graph::NodeId source, radio::Payload message,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium = radio::MediumKind::kBitslice,
    radio::RecoveryStrategy recovery = radio::RecoveryStrategy::kAuto);

}  // namespace radiocast::core
