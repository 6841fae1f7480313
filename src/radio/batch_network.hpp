// Batched radio medium: one graph, up to 64 independent Monte-Carlo
// replication lanes resolved per round.
//
// BatchNetwork is the lane-parallel sibling of Network: sim::Runner's
// replicate_batched() groups a scenario's replications into lane batches
// and drives one BatchNetwork per batch, so 64 seeds share each CSR
// traversal (with the default bitslice backend) instead of re-walking the
// adjacency per seed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "graph/graph.hpp"
#include "radio/lane_executor.hpp"
#include "radio/medium.hpp"
#include "radio/model.hpp"

namespace radiocast::radio {

class BatchNetwork : public LaneExecutor {
 public:
  explicit BatchNetwork(
      const graph::Graph& g, int lanes = kMaxLanes,
      CollisionModel model = CollisionModel::kNoDetection,
      MediumKind medium = MediumKind::kBitslice,
      RecoveryStrategy recovery = RecoveryStrategy::kAuto);
  /// The network aliases the graph; binding a temporary would dangle.
  explicit BatchNetwork(
      graph::Graph&& g, int lanes = kMaxLanes,
      CollisionModel model = CollisionModel::kNoDetection,
      MediumKind medium = MediumKind::kBitslice,
      RecoveryStrategy recovery = RecoveryStrategy::kAuto) = delete;

  const graph::Graph& topology() const override { return *graph_; }
  CollisionModel collision_model() const override { return model_; }
  graph::NodeId node_count() const { return graph_->node_count(); }
  int lanes() const override { return lanes_; }
  MediumKind medium_kind() const { return kind_; }
  /// The sender-recovery knob the medium was constructed with; see
  /// RecoveryStrategy (only the bitslice backend honours it).
  RecoveryStrategy recovery_strategy() const {
    return medium_->recovery_strategy();
  }
  Medium& medium() override { return *medium_; }

  /// Resolves one round in all lanes: bit l of tx_mask[v] says whether v
  /// transmits in lane l; `payload` is what each node sends — one shared
  /// plane or per-lane lane-major planes (see PayloadPlanes).
  /// `with_senders` opts into per-delivery sender/payload detail; the
  /// aggregate delivered masks and counters come either way.
  void step(std::span<const std::uint64_t> tx_mask, PayloadPlanes payload,
            BatchOutcome& out, bool with_senders = true);

  /// LaneExecutor entry point; identical to step().
  void step_lanes(std::span<const std::uint64_t> tx_mask,
                  PayloadPlanes payload, BatchOutcome& out,
                  bool with_senders = true) override {
    step(tx_mask, payload, out, with_senders);
  }

  /// Fold variant (see LaneExecutor): one Medium::resolve_batch_max call,
  /// counters advance like step().
  void step_lanes_max(std::span<const std::uint64_t> tx_mask,
                      PayloadPlanes payload, KnowledgePlanes best,
                      BatchOutcome& out) override;

  /// Sparse variant (see LaneExecutor): one Medium::resolve_batch_active
  /// call — the O(active-work) path on the bitslice backend.
  void step_lanes_active(std::span<const ActiveTx> tx, PayloadPlanes payload,
                         BatchOutcome& out, bool with_senders = true) override;

  /// Sparse fold variant (see LaneExecutor): one
  /// Medium::resolve_batch_max_active call.
  void step_lanes_max_active(std::span<const ActiveTx> tx,
                             PayloadPlanes payload, KnowledgePlanes best,
                             BatchOutcome& out) override;

  Round rounds_elapsed() const { return rounds_; }
  const std::array<std::uint64_t, kMaxLanes>& transmissions_by_lane() const {
    return total_tx_;
  }
  const std::array<std::uint64_t, kMaxLanes>& deliveries_by_lane() const {
    return total_delivered_;
  }
  const std::array<std::uint64_t, kMaxLanes>& collisions_by_lane() const {
    return total_collided_;
  }
  std::uint64_t total_transmissions() const;
  std::uint64_t total_deliveries() const;
  std::uint64_t total_collisions() const;
  void reset_counters();

 private:
  const graph::Graph* graph_;
  CollisionModel model_;
  MediumKind kind_;
  int lanes_;
  std::unique_ptr<Medium> medium_;
  Round rounds_ = 0;
  std::array<std::uint64_t, kMaxLanes> total_tx_{};
  std::array<std::uint64_t, kMaxLanes> total_delivered_{};
  std::array<std::uint64_t, kMaxLanes> total_collided_{};
};

}  // namespace radiocast::radio
