// The synchronous radio medium: resolves one round of transmissions into
// per-node receptions under the chosen collision model.
//
// Network is the facade protocols talk to. The interference rule itself
// lives behind the pluggable radio::Medium interface (medium.hpp; see
// MediumKind for the backends); Network owns one backend, keeps the
// cross-round counters, and offers two views of a round:
//
//   resolve() — the unified entry point: transmitter list in, sparse
//               outcome out (the backend adaptively picks its dense or
//               sparse path from transmitter density)
//   step()    — dense per-node vectors in/out, for schedule-driven
//               callers; a thin adapter over resolve()
//
// plus the one-lane LaneExecutor entry point (step_lanes), also an
// adapter over resolve().
//
// A correctness bug in collision semantics would affect every experiment
// identically — which is why the semantics are pinned by an exhaustive
// truth-table test plus a cross-backend differential test.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "radio/lane_executor.hpp"
#include "radio/medium.hpp"
#include "radio/model.hpp"

namespace radiocast::radio {

/// Outcome of a single round, from the medium's point of view.
struct RoundOutcome {
  /// Per node: what it perceived (transmitters always perceive kSilence —
  /// radios are half-duplex).
  std::vector<Reception> reception;
  /// Per node: the payload received when reception == kMessage.
  std::vector<Payload> received_payload;
  std::uint32_t transmitter_count = 0;
  std::uint32_t delivered_count = 0;   // listeners with exactly 1 tx neighbour
  std::uint32_t collided_count = 0;    // listeners with >= 2 tx neighbours
};

class Network : public LaneExecutor {
 public:
  explicit Network(const graph::Graph& g,
                   CollisionModel model = CollisionModel::kNoDetection,
                   MediumKind medium = MediumKind::kScalar,
                   int medium_threads = 0);
  /// The network aliases the graph; binding a temporary would dangle.
  explicit Network(graph::Graph&& g,
                   CollisionModel model = CollisionModel::kNoDetection,
                   MediumKind medium = MediumKind::kScalar,
                   int medium_threads = 0) = delete;

  const graph::Graph& topology() const override { return *graph_; }
  CollisionModel collision_model() const override { return model_; }
  graph::NodeId node_count() const { return graph_->node_count(); }
  /// LaneExecutor: a Network is the one-lane executor.
  int lanes() const override { return 1; }
  MediumKind medium_kind() const { return kind_; }
  Medium& medium() override { return *medium_; }
  const Medium& medium() const { return *medium_; }

  /// The unified entry point: resolves one round given only the
  /// transmitter list (everyone else listens). Duplicates are counted
  /// once; an id >= node_count() throws std::invalid_argument. Cost is
  /// O(sum of transmitter degrees) on the sparse path; the backend
  /// switches to a dense path when most of the graph is active.
  /// Under CollisionModel::kDetection, out.collided_nodes lists the
  /// listeners that perceived a collision (matching the dense path's
  /// Reception::kCollision); without detection it stays empty.
  void resolve(std::span<const graph::NodeId> transmitters,
               std::span<const Payload> tx_payload, SparseOutcome& out);

  /// Resolves one round from dense per-node vectors. `transmit[v]` says
  /// whether v transmits and `payload[v]` what it sends (ignored when not
  /// transmitting). The outcome's vectors are sized to node_count().
  /// Allocation-free after the first call (scratch is reused).
  void step(const std::vector<std::uint8_t>& transmit,
            const std::vector<Payload>& payload, RoundOutcome& out);

  /// Convenience allocating overload.
  RoundOutcome step(const std::vector<std::uint8_t>& transmit,
                    const std::vector<Payload>& payload);

  /// LaneExecutor entry point (lanes must be 1): the entries with lane
  /// bit 0 set form the round's transmitter list, resolved through
  /// resolve() — so cross-round counters advance as for any other round —
  /// and each delivery max-folds into best.at(0, v). One lane, so every
  /// KnowledgePlanes layout is equivalent (vectors/spans adapt
  /// implicitly).
  void step_lanes(std::span<const ActiveTx> tx, PayloadPlanes payload,
                  int lanes, KnowledgePlanes best, BatchOutcome& out) override;

  Round rounds_elapsed() const { return rounds_; }
  std::uint64_t total_transmissions() const { return total_tx_; }
  std::uint64_t total_deliveries() const { return total_delivered_; }
  std::uint64_t total_collisions() const { return total_collided_; }
  void reset_counters();

 private:
  const graph::Graph* graph_;
  CollisionModel model_;
  MediumKind kind_;
  std::unique_ptr<Medium> medium_;
  Round rounds_ = 0;
  std::uint64_t total_tx_ = 0;
  std::uint64_t total_delivered_ = 0;
  std::uint64_t total_collided_ = 0;

  // step()/step_lanes() adapter scratch: the round as a tx list.
  std::vector<graph::NodeId> tx_nodes_;
  std::vector<Payload> tx_payload_;
  SparseOutcome sparse_scratch_;
};

}  // namespace radiocast::radio
