#include "core/compete_batched.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "radio/batch_network.hpp"
#include "schedule/decay.hpp"
#include "util/rng.hpp"

namespace radiocast::core {

BatchedCompeteParams bgi_params(std::uint32_t n) {
  BatchedCompeteParams p;
  p.cycle_depth = schedule::decay_round_length(n);
  return p;
}

BatchedCompeteParams cr_params(std::uint32_t n, std::uint32_t diameter) {
  BatchedCompeteParams p;
  const double ratio =
      std::max(2.0, static_cast<double>(n) /
                        static_cast<double>(std::max<std::uint32_t>(1, diameter)));
  p.cycle_depth = std::min(
      static_cast<std::uint32_t>(std::ceil(std::log2(ratio))) + 2,
      schedule::decay_round_length(n));
  p.full_cycle_every = 8;
  return p;
}

std::vector<CompeteLaneResult> compete_batched(
    radio::LaneExecutor& net, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds) {
  const NodeId n = net.node_count();
  if (n == 0) throw std::invalid_argument("compete_batched: empty graph");
  const int lanes = static_cast<int>(seeds.size());
  if (lanes < 1 || lanes > net.lanes()) {
    throw std::invalid_argument(
        "compete_batched: seeds.size() must be in [1, net.lanes()]");
  }
  const std::uint64_t lane_mask = radio::lane_mask(lanes);

  std::vector<CompeteLaneResult> results(static_cast<std::size_t>(lanes));
  radio::Payload winner = radio::kNoPayload;
  for (const auto& s : sources) {
    if (s.node >= n) {
      throw std::out_of_range("compete_batched: source out of range");
    }
    if (s.value == radio::kNoPayload) {
      throw std::invalid_argument(
          "compete_batched: source value is the kNoPayload sentinel");
    }
    radio::fold_max(winner, s.value);
  }
  auto finish_lane = [&](int l, bool success, std::uint64_t rounds) {
    CompeteLaneResult& r = results[static_cast<std::size_t>(l)];
    r.success = success;
    r.rounds = rounds;
    r.winner = winner;
  };
  if (sources.empty()) {
    // Vacuous: nothing to propagate (mirrors compete()).
    for (int l = 0; l < lanes; ++l) {
      finish_lane(l, true, 0);
      results[static_cast<std::size_t>(l)].best.assign(n, radio::kNoPayload);
      results[static_cast<std::size_t>(l)].informed = 0;
    }
    return results;
  }

  // Single-valued runs (a broadcast, a binary-search LE phase): the only
  // value in flight is the winner, so a node holds it in exactly the lanes
  // it is informed in. The medium relays one shared plane of n copies of
  // it, which it proves constant and folds with no sender recovery, into
  // one shared scratch word per node that is never read: best[] is read
  // off the informed masks instead. Multi-valued runs relay and fold
  // node-major knowledge planes: node v owns best[v*lanes, (v+1)*lanes),
  // so the medium's max-fold writes each listener's lane words as one
  // contiguous run (see KnowledgePlanes).
  const bool single_valued =
      std::all_of(sources.begin(), sources.end(),
                  [&](const CompeteSource& s) { return s.value == winner; });
  std::vector<radio::Payload> best(
      single_valued ? n : static_cast<std::size_t>(lanes) * n,
      radio::kNoPayload);
  std::vector<radio::Payload> relayed;
  if (single_valued) relayed.assign(n, winner);
  const radio::KnowledgePlanes bestk =
      single_valued ? radio::KnowledgePlanes::shared(best)
                    : radio::KnowledgePlanes::node_major(best, n);
  const radio::PayloadPlanes planes =
      single_valued ? radio::PayloadPlanes(relayed)
                    : radio::PayloadPlanes::node_major(best, n);
  // Bit l of informed[v]: v knows something in lane l (and so relays).
  std::vector<std::uint64_t> informed(n, 0);
  for (const auto& s : sources) {
    informed[s.node] = lane_mask;
    if (single_valued) continue;
    for (int l = 0; l < lanes; ++l) {
      radio::fold_max(bestk.at(l, s.node), s.value);
    }
  }
  auto holds_winner = [&](int l, NodeId v) {
    return single_valued ? ((informed[v] >> l) & 1) != 0
                         : bestk.at(l, v) == winner;
  };

  std::vector<util::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(lanes));
  for (const std::uint64_t seed : seeds) rngs.emplace_back(seed);

  const std::uint32_t full_depth = schedule::decay_round_length(n);
  const std::uint32_t depth =
      params.cycle_depth == 0 ? full_depth
                              : std::max<std::uint32_t>(1, params.cycle_depth);

  // Bit l of knows[v]: v holds max(S) in lane l; knowing[l] counts those
  // nodes. Knowledge only grows under the max-fold, so both update from
  // the round's delivered masks alone and a lane completes exactly in the
  // round its count reaches n.
  std::vector<std::uint64_t> knows(n, 0);
  NodeId source_knowing = 0;  // sources are the same in every lane
  for (NodeId v = 0; v < n; ++v) {
    if (holds_winner(0, v)) {
      knows[v] = lane_mask;
      ++source_knowing;
    }
  }
  std::vector<NodeId> knowing(static_cast<std::size_t>(lanes), source_knowing);
  std::uint64_t active = lane_mask;
  if (source_knowing == n) {
    for (int l = 0; l < lanes; ++l) finish_lane(l, true, 0);
    active = 0;
  }

  std::vector<std::uint64_t> participates(n, 0);
  radio::BatchOutcome out;
  std::uint64_t round = 0;
  std::uint32_t step = 1;  // 1-based density index within the cycle
  std::uint32_t cycle = 0;  // completed density cycles
  std::uint32_t cycle_len = depth;
  while (active != 0 && round < params.max_rounds) {
    // Done lanes stop transmitting: their planes and counters are frozen
    // at the values a standalone run would have terminated with (the coin
    // words their streams keep yielding can no longer influence anything).
    for (NodeId v = 0; v < n; ++v) participates[v] = informed[v] & active;
    schedule::decay_step_lanes(net, participates, planes, step, bestk, rngs,
                               out);
    for (std::uint64_t scan = active; scan != 0; scan &= scan - 1) {
      const int l = std::countr_zero(scan);
      results[static_cast<std::size_t>(l)].transmissions +=
          out.transmitter_count[l];
      results[static_cast<std::size_t>(l)].deliveries +=
          out.delivered_count[l];
    }
    ++round;
    std::uint64_t completed = 0;
    for (const auto& dm : out.delivered) {
      informed[dm.node] |= dm.lanes;  // delivered lanes are active lanes
      for (std::uint64_t scan = dm.lanes & ~knows[dm.node]; scan != 0;
           scan &= scan - 1) {
        const int l = std::countr_zero(scan);
        if (!holds_winner(l, dm.node)) continue;
        knows[dm.node] |= std::uint64_t{1} << l;
        if (++knowing[static_cast<std::size_t>(l)] == n) {
          completed |= std::uint64_t{1} << l;
        }
      }
    }
    for (std::uint64_t scan = completed; scan != 0; scan &= scan - 1) {
      finish_lane(std::countr_zero(scan), true, round);
    }
    active &= ~completed;
    if (++step > cycle_len) {
      step = 1;
      ++cycle;
      // CR's periodic full-depth cycle.
      cycle_len = params.full_cycle_every != 0 &&
                          cycle % params.full_cycle_every == 0
                      ? full_depth
                      : depth;
    }
  }
  // Lanes still active ran out of budget before every node knew max(S).
  for (std::uint64_t scan = active; scan != 0; scan &= scan - 1) {
    finish_lane(std::countr_zero(scan), false, round);
  }

  for (int l = 0; l < lanes; ++l) {
    CompeteLaneResult& r = results[static_cast<std::size_t>(l)];
    r.informed = knowing[static_cast<std::size_t>(l)];
    r.best.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      r.best[v] = single_valued
                      ? (holds_winner(l, v) ? winner : radio::kNoPayload)
                      : bestk.at(l, v);
    }
  }
  return results;
}

std::vector<CompeteLaneResult> compete_batched(
    const graph::Graph& g, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium, radio::RecoveryStrategy recovery) {
  radio::BatchNetwork net(g, static_cast<int>(seeds.size()),
                          radio::CollisionModel::kNoDetection, medium,
                          recovery);
  return compete_batched(net, sources, params, seeds);
}

std::vector<CompeteLaneResult> broadcast_batched(
    const graph::Graph& g, graph::NodeId source, radio::Payload message,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium, radio::RecoveryStrategy recovery) {
  return compete_batched(g, {{source, message}}, params, seeds, medium,
                         recovery);
}

}  // namespace radiocast::core
