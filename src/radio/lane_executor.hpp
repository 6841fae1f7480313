// LaneExecutor: the seam that lets one protocol implementation drive
// either a single scalar replication or up to 64 batched Monte-Carlo
// lanes.
//
// A lane is one independent replication of a protocol over the shared
// topology. Network satisfies the interface with exactly one lane (bit 0
// of every mask word); BatchNetwork satisfies it with up to kMaxLanes
// lanes resolved per step (one CSR traversal for all of them on the
// bitslice backend). Protocol cores written against LaneExecutor — the
// lane-generic Decay in schedule/decay.hpp, the batched Compete drivers
// in core/compete_batched.hpp — therefore run bit-for-bit identically
// whether executed one seed at a time or 64 seeds per traversal, which is
// what the lane-by-lane differential tests pin down.
#pragma once

#include <cstdint>
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

  /// Resolves one synchronous round across all lanes: bit l of tx_mask[v]
  /// says whether v transmits in lane l (bits >= lanes() are ignored);
  /// `payload` supplies what each node sends per lane (shared or
  /// lane-major, see PayloadPlanes). `with_senders` opts into per-delivery
  /// sender/payload detail; delivered masks and counters come either way.
  /// Implementations keep their cross-round counters, so a protocol can
  /// read totals off the concrete executor afterwards.
  virtual void step_lanes(std::span<const std::uint64_t> tx_mask,
                          PayloadPlanes payload, BatchOutcome& out,
                          bool with_senders = true) = 0;

  /// Fold variant for max-relay protocols: deliveries max-combine into the
  /// knowledge planes `best` (any KnowledgePlanes layout; the batched
  /// protocol cores use node-major so each listener's folded lane words
  /// are one contiguous run) instead of materializing out.deliveries —
  /// see Medium::resolve_batch_max. Counters and delivered masks come in
  /// `out` as usual.
  virtual void step_lanes_max(std::span<const std::uint64_t> tx_mask,
                              PayloadPlanes payload, KnowledgePlanes best,
                              BatchOutcome& out) = 0;

  /// Sparse variant: the transmitter set as (node, lane mask) entries
  /// instead of an n-word dense mask (see Medium::resolve_batch_active).
  /// Semantics and counters match step_lanes over the equivalent mask;
  /// protocols with small active sets use it so round cost can follow the
  /// active work instead of n (bitslice resolves the list natively; the
  /// other backends materialise the mask internally).
  virtual void step_lanes_active(std::span<const ActiveTx> tx,
                                 PayloadPlanes payload, BatchOutcome& out,
                                 bool with_senders = true) = 0;

  /// Sparse fold variant: step_lanes_max over a sparse transmitter list
  /// (see Medium::resolve_batch_max_active) — how a max-relay protocol's
  /// sparse tail rounds reach the O(active-work) path without giving up
  /// the in-medium fold.
  virtual void step_lanes_max_active(std::span<const ActiveTx> tx,
                                     PayloadPlanes payload,
                                     KnowledgePlanes best,
                                     BatchOutcome& out) = 0;

  graph::NodeId node_count() const { return topology().node_count(); }
};

}  // namespace radiocast::radio
