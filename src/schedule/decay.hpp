// The Decay protocol of Bar-Yehuda, Goldreich, Itai (Algorithm 5 of the
// paper) — the fundamental randomized transmission primitive of radio
// networks. One "round of Decay" consists of ceil(log2 n) time steps; in
// step i (1-based) each participating node transmits with probability 2^-i.
// Lemma 3.1: a listener with >= 1 participating neighbour receives with
// constant probability per Decay round.
//
// The primitive is lane-generic: decay_step_lanes/decay_round_lanes drive
// any radio::LaneExecutor, so the same implementation runs one scalar
// replication (Network) or up to 64 batched Monte-Carlo lanes
// (BatchNetwork) — `participates` becomes a per-node lane mask, payload_of
// and best become per-lane planes, and each lane draws its Bernoulli coins
// from its own RNG stream. The single-lane decay_step/decay_round are thin
// wrappers, so scalar and batched executions share one code path.
//
// Coin scheme: Bernoulli(2^-i) is drawn as the AND of i coin words per
// 64-node block of a lane's stream (bit v mod 64 decides node v), with
// early exit once the running AND is zero. A lane draws a block's word only
// when it has a participant in that block; silent blocks cost no draws. The
// draw sequence is a pure function of (lane seed, call sequence, the lane's
// own participation) — never of other lanes — so lane l of a batched run
// consumes exactly the word sequence a standalone scalar run with the same
// seed consumes, which is what makes batched and per-seed executions
// byte-identical, lane by lane.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "radio/lane_executor.hpp"
#include "radio/network.hpp"
#include "util/rng.hpp"

namespace radiocast::schedule {

/// Transmission probability at 1-based Decay step i: 2^-i.
double decay_probability(std::uint32_t step);

/// Number of steps in one Decay round for an n-node network: ceil(log2 n),
/// at least 1.
std::uint32_t decay_round_length(std::uint32_t n);

/// Executes ONE step of synchronized Decay across all lanes of `net`.
/// Bit l of participates[v] marks v as running Decay in lane l; each
/// participant transmits its lane's payload_of value with probability
/// 2^-step (coins from lane_rng[l], see the coin-scheme note above).
/// `best` is the knowledge-plane view (any KnowledgePlanes layout; the
/// batched cores use node-major), updated with the maximum received value.
/// `out` is caller-owned scratch holding the round's delivered masks and
/// counters on return. lane_rng.size() selects the lane count; it must not
/// exceed net.lanes(), and best must cover node_count nodes x that many
/// lanes. The round's transmitters reach the executor's one entry point,
/// step_lanes, as an ActiveTx list in node order, and deliveries fold into
/// `best` there (no per-delivery records), so deep steps with few
/// transmitters cost O(active work) on the bitslice backend. Returns the
/// number of deliveries summed over lanes.
std::uint32_t decay_step_lanes(radio::LaneExecutor& net,
                               std::span<const std::uint64_t> participates,
                               radio::PayloadPlanes payload_of,
                               std::uint32_t step,
                               radio::KnowledgePlanes best,
                               std::span<util::Rng> lane_rng,
                               radio::BatchOutcome& out);

/// Executes one full Decay round (decay_round_length(n) steps) across all
/// lanes. Returns total deliveries over steps and lanes.
std::uint32_t decay_round_lanes(radio::LaneExecutor& net,
                                std::span<const std::uint64_t> participates,
                                radio::PayloadPlanes payload_of,
                                radio::KnowledgePlanes best,
                                std::span<util::Rng> lane_rng,
                                radio::BatchOutcome& out);

/// Single-lane convenience over decay_step_lanes. `participates[v]` marks
/// nodes running Decay this round; each transmits `payload_of[v]` with
/// probability 2^-step. Listeners that receive update
/// `best[v] = max(best[v], received)`. Returns the number of deliveries.
std::uint32_t decay_step(radio::Network& net,
                         const std::vector<std::uint8_t>& participates,
                         const std::vector<radio::Payload>& payload_of,
                         std::uint32_t step, std::vector<radio::Payload>& best,
                         util::Rng& rng);

/// Executes one full Decay round (decay_round_length(n) steps).
/// Returns total deliveries.
std::uint32_t decay_round(radio::Network& net,
                          const std::vector<std::uint8_t>& participates,
                          const std::vector<radio::Payload>& payload_of,
                          std::vector<radio::Payload>& best, util::Rng& rng);

}  // namespace radiocast::schedule
