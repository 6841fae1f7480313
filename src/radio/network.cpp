#include "radio/network.hpp"

#include <stdexcept>

namespace radiocast::radio {

Network::Network(const graph::Graph& g, CollisionModel model,
                 MediumKind medium, int medium_threads)
    : graph_(&g),
      model_(model),
      kind_(medium),
      medium_(make_medium(medium, g, model, medium_threads)) {}

void Network::resolve(std::span<const graph::NodeId> transmitters,
                      std::span<const Payload> tx_payload,
                      SparseOutcome& out) {
  medium_->resolve(transmitters, tx_payload, out);
  ++rounds_;
  total_tx_ += out.transmitter_count;
  total_delivered_ += out.deliveries.size();
  total_collided_ += out.collided_count;
}

void Network::step(const std::vector<std::uint8_t>& transmit,
                   const std::vector<Payload>& payload, RoundOutcome& out) {
  const graph::NodeId n = graph_->node_count();
  if (transmit.size() != n || payload.size() != n) {
    throw std::invalid_argument("Network::step: vector size mismatch");
  }
  tx_nodes_.clear();
  tx_payload_.clear();
  for (graph::NodeId u = 0; u < n; ++u) {
    if (transmit[u]) {
      tx_nodes_.push_back(u);
      tx_payload_.push_back(payload[u]);
    }
  }
  resolve(tx_nodes_, tx_payload_, sparse_scratch_);

  out.reception.assign(n, Reception::kSilence);
  out.received_payload.assign(n, kNoPayload);
  out.transmitter_count = sparse_scratch_.transmitter_count;
  out.delivered_count =
      static_cast<std::uint32_t>(sparse_scratch_.deliveries.size());
  out.collided_count = sparse_scratch_.collided_count;
  for (const auto& d : sparse_scratch_.deliveries) {
    out.reception[d.node] = Reception::kMessage;
    out.received_payload[d.node] = d.payload;
  }
  // Without detection a collision reads as silence; collided_nodes is only
  // populated in the detection model, mirroring the enum's contract.
  for (const graph::NodeId v : sparse_scratch_.collided_nodes) {
    out.reception[v] = Reception::kCollision;
  }
}

RoundOutcome Network::step(const std::vector<std::uint8_t>& transmit,
                           const std::vector<Payload>& payload) {
  RoundOutcome out;
  step(transmit, payload, out);
  return out;
}

void Network::step_lanes(std::span<const ActiveTx> tx, PayloadPlanes payload,
                         int lanes, KnowledgePlanes best, BatchOutcome& out) {
  const graph::NodeId n = graph_->node_count();
  if (lanes != 1) {
    throw std::invalid_argument("Network::step_lanes: lanes must be 1");
  }
  if (payload.plane_size() != n || payload.lane_capacity() < 1 ||
      best.plane_size() < n || best.lane_capacity() < 1) {
    throw std::invalid_argument("Network::step_lanes: size mismatch");
  }
  tx_nodes_.clear();
  tx_payload_.clear();
  for (const ActiveTx& e : tx) {
    if (e.node >= n) {
      throw std::invalid_argument(
          "Network::step_lanes: transmitter out of range");
    }
    if (e.lanes & 1) {
      tx_nodes_.push_back(e.node);
      tx_payload_.push_back(payload.at(0, e.node));
    }
  }
  resolve(tx_nodes_, tx_payload_, sparse_scratch_);

  out.clear();
  out.transmitter_count[0] = sparse_scratch_.transmitter_count;
  out.delivered_count[0] =
      static_cast<std::uint32_t>(sparse_scratch_.deliveries.size());
  out.collided_count[0] = sparse_scratch_.collided_count;
  out.active_listeners = sparse_scratch_.active_listeners;
  for (const auto& d : sparse_scratch_.deliveries) {
    out.delivered.push_back({d.node, 1});
    fold_max(best.at(0, d.node), d.payload);
  }
  for (const graph::NodeId v : sparse_scratch_.collided_nodes) {
    out.collisions.push_back({v, 1});
  }
}

void Network::reset_counters() {
  rounds_ = 0;
  total_tx_ = 0;
  total_delivered_ = 0;
  total_collided_ = 0;
}

}  // namespace radiocast::radio
