// LaneExecutor: the seam that lets one protocol implementation drive
// either a single scalar replication or up to 64 batched Monte-Carlo
// lanes.
//
// A lane is one independent replication of a protocol over the shared
// topology. Network satisfies the interface with exactly one lane (bit 0
// of every lane mask); BatchNetwork satisfies it with up to kMaxLanes
// lanes resolved per step (one CSR traversal for all of them on the
// bitslice backend). The one round entry point, step_lanes, is a
// max-relay round: a transmitter list in, deliveries max-folded into the
// caller's knowledge planes. Protocol cores written against LaneExecutor — the
// lane-generic Decay in schedule/decay.hpp, the batched Compete drivers
// in core/compete_batched.hpp — therefore run bit-for-bit identically
// whether executed one seed at a time or 64 seeds per traversal, which is
// what the lane-by-lane differential tests pin down.
#pragma once

#include <span>

#include "graph/graph.hpp"
#include "radio/medium.hpp"
#include "radio/model.hpp"

namespace radiocast::radio {

class LaneExecutor {
 public:
  virtual ~LaneExecutor() = default;

  virtual const graph::Graph& topology() const = 0;
  virtual CollisionModel collision_model() const = 0;
  /// Replication lanes resolved per step: 1 for Network, up to kMaxLanes
  /// for BatchNetwork.
  virtual int lanes() const = 0;
  /// The backend resolving this executor's rounds — the seam for the
  /// sender-recovery knob and the per-phase timers, so lane-generic
  /// callers (benches, tests) can reach both without knowing whether they
  /// drive a Network or a BatchNetwork.
  virtual Medium& medium() = 0;

  /// Resolves one synchronous max-relay round across the first `lanes`
  /// lanes (1 <= lanes <= lanes()): `tx` lists each transmitter with the
  /// lane set it transmits in (duplicates OR together), `payload` supplies
  /// what each node sends per lane (see PayloadPlanes), and every delivery
  /// max-combines into the knowledge planes `best` (any KnowledgePlanes
  /// layout; the batched protocol cores use node-major) — see
  /// Medium::resolve_lanes. `out` receives the delivered masks and per-lane
  /// counters. Implementations keep their cross-round counters for those
  /// lanes, so a protocol can read totals off the concrete executor
  /// afterwards.
  virtual void step_lanes(std::span<const ActiveTx> tx, PayloadPlanes payload,
                          int lanes, KnowledgePlanes best,
                          BatchOutcome& out) = 0;

  graph::NodeId node_count() const { return topology().node_count(); }
};

}  // namespace radiocast::radio
