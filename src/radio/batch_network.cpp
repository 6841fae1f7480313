#include "radio/batch_network.hpp"

#include <stdexcept>

namespace radiocast::radio {

BatchNetwork::BatchNetwork(const graph::Graph& g, int lanes,
                           CollisionModel model, MediumKind medium,
                           RecoveryStrategy recovery)
    : graph_(&g),
      model_(model),
      kind_(medium),
      lanes_(lanes),
      medium_(make_medium(medium, g, model, /*threads=*/0, recovery)) {
  if (lanes < 1 || lanes > kMaxLanes) {
    throw std::invalid_argument("BatchNetwork: lanes out of range");
  }
}

void BatchNetwork::step_lanes(std::span<const ActiveTx> tx,
                              PayloadPlanes payload, int lanes,
                              KnowledgePlanes best, BatchOutcome& out) {
  if (lanes < 1 || lanes > lanes_) {
    throw std::invalid_argument("BatchNetwork::step_lanes: lanes out of range");
  }
  medium_->resolve_lanes(tx, payload, lanes, best, out);
  ++rounds_;
  for (int l = 0; l < lanes; ++l) {
    total_tx_[l] += out.transmitter_count[l];
    total_delivered_[l] += out.delivered_count[l];
    total_collided_[l] += out.collided_count[l];
  }
}

std::uint64_t BatchNetwork::total_transmissions() const {
  std::uint64_t sum = 0;
  for (int l = 0; l < lanes_; ++l) sum += total_tx_[l];
  return sum;
}

std::uint64_t BatchNetwork::total_deliveries() const {
  std::uint64_t sum = 0;
  for (int l = 0; l < lanes_; ++l) sum += total_delivered_[l];
  return sum;
}

std::uint64_t BatchNetwork::total_collisions() const {
  std::uint64_t sum = 0;
  for (int l = 0; l < lanes_; ++l) sum += total_collided_[l];
  return sum;
}

void BatchNetwork::reset_counters() {
  rounds_ = 0;
  total_tx_.fill(0);
  total_delivered_.fill(0);
  total_collided_.fill(0);
}

}  // namespace radiocast::radio
