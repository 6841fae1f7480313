// Scalar reference backend: the epoch-stamped collision kernel that every
// other backend is differentially tested against.
//
// resolve() adaptively dispatches between two equivalent paths on the
// estimated traversal volume (sum of transmitter degrees):
//   frontier — transmitter-centric scatter with epoch-stamped scratch;
//              touches only the listeners adjacent to a transmitter, so a
//              sparse round costs O(sum of transmitter degrees)
//   dense    — full-array counting plus a second emission traversal; no
//              per-listener stamp branches, sequential output scan, wins
//              when most of the graph is active anyway
// Both paths emit deliveries in identical first-touch order, so seeded
// protocol trajectories do not depend on which path was taken.
//
// resolve_lanes() decomposes into one resolve() per lane over the
// ActiveTx list, max-folds each lane's deliveries into its knowledge plane
// and ORs them into aggregate masks — the per-lane reference every batch
// kernel is differentially tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "radio/medium.hpp"

namespace radiocast::radio {

class ScalarMedium final : public Medium {
 public:
  ScalarMedium(const graph::Graph& g, CollisionModel model);

  std::string_view name() const override { return "scalar"; }

  void resolve(std::span<const graph::NodeId> transmitters,
               std::span<const Payload> tx_payload,
               SparseOutcome& out) override;

  /// Per lane, resolve() over the list entries transmitting in it, then
  /// fold and aggregate. Every entry is range-checked before any state
  /// changes, so a throw leaves the medium as it was.
  void resolve_lanes(std::span<const ActiveTx> tx, PayloadPlanes payload,
                     int lanes, KnowledgePlanes best,
                     BatchOutcome& out) override;

 private:
  void resolve_frontier(SparseOutcome& out);
  void resolve_dense(SparseOutcome& out);

  // Deduplicated transmitter list for the current round, plus the payload
  // each transmitter sends (indexed by node, valid iff tx_stamp_ == epoch_).
  std::vector<graph::NodeId> txlist_;
  std::vector<Payload> payload_of_;
  std::vector<std::uint64_t> tx_stamp_;

  // Frontier-path scratch: listener counts valid iff stamp_ == epoch_.
  std::vector<std::uint32_t> tx_count_;
  std::vector<Payload> pending_payload_;
  std::vector<graph::NodeId> tx_from_;
  std::vector<std::uint64_t> stamp_;
  std::vector<graph::NodeId> touched_;

  // Dense-path scratch: plain counters, cleared every dense round.
  std::vector<std::uint32_t> dense_count_;

  // Batch decomposition scratch: one lane's transmitters and outcome, and
  // per-listener won-lane masks (all zero between calls; agg_touched_ lists
  // the nonzero ones in first-delivery order).
  std::vector<graph::NodeId> lane_tx_;
  std::vector<Payload> lane_payload_;
  SparseOutcome lane_out_;
  std::vector<std::uint64_t> agg_mask_;
  std::vector<graph::NodeId> agg_touched_;

  std::uint64_t epoch_ = 0;
  // Set by each path at its accumulate/emit boundary so resolve() can
  // split the phase timers without timing inside the hot loops.
  std::uint64_t output_start_ns_ = 0;
};

}  // namespace radiocast::radio
