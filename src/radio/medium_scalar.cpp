#include "radio/medium_scalar.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace radiocast::radio {

ScalarMedium::ScalarMedium(const graph::Graph& g, CollisionModel model)
    : Medium(g, model) {
  const auto n = g.node_count();
  payload_of_.assign(n, kNoPayload);
  tx_stamp_.assign(n, 0);
  tx_count_.assign(n, 0);
  pending_payload_.assign(n, kNoPayload);
  tx_from_.assign(n, graph::kInvalidNode);
  stamp_.assign(n, 0);
  touched_.reserve(n);
  agg_mask_.assign(n, 0);
}

void ScalarMedium::resolve(std::span<const graph::NodeId> transmitters,
                           std::span<const Payload> tx_payload,
                           SparseOutcome& out) {
  if (transmitters.size() != tx_payload.size()) {
    throw std::invalid_argument("ScalarMedium::resolve: size mismatch");
  }
  out.deliveries.clear();
  out.collided_nodes.clear();
  out.transmitter_count = 0;
  out.collided_count = 0;
  out.active_listeners = 0;

  const graph::NodeId n = graph_->node_count();
  ++epoch_;
  txlist_.clear();
  std::uint64_t work = 0;
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    const graph::NodeId u = transmitters[i];
    if (u >= n) {
      // Stamps already written belong to this epoch; the next round bumps
      // it, so nothing needs undoing.
      throw std::invalid_argument(
          "ScalarMedium::resolve: transmitter out of range");
    }
    if (tx_stamp_[u] == epoch_) continue;  // duplicate entry: process once
    tx_stamp_[u] = epoch_;
    payload_of_[u] = tx_payload[i];
    txlist_.push_back(u);
    work += graph_->degree(u);
  }
  out.transmitter_count = static_cast<std::uint32_t>(txlist_.size());

  const obs::TraceSpan trace_span("scalar.round", "tx", txlist_.size());
  const std::uint64_t t0 = now_ns();
  if (2 * work >= n) {
    resolve_dense(out);
  } else {
    resolve_frontier(out);
  }
  // The scalar kernel identifies senders during its traversal, so the
  // whole round is traverse + output with no recovery phase; each path
  // accounts for its own output sweep.
  const std::uint64_t t_end = now_ns();
  timers_.traverse_ns += output_start_ns_ - t0;
  timers_.output_ns += t_end - output_start_ns_;
  timers_.active_listeners += out.active_listeners;
  static obs::Histogram& round_hist =
      obs::Metrics::global().histogram("radio.scalar.round_ns");
  round_hist.record(t_end - t0);
  ++timers_.rounds;
}

void ScalarMedium::resolve_frontier(SparseOutcome& out) {
  touched_.clear();
  for (const graph::NodeId u : txlist_) {
    const Payload p = payload_of_[u];
    for (const graph::NodeId v : graph_->neighbors(u)) {
      if (stamp_[v] != epoch_) {
        stamp_[v] = epoch_;
        tx_count_[v] = 0;
        touched_.push_back(v);
      }
      ++tx_count_[v];
      pending_payload_[v] = p;
      tx_from_[v] = u;
    }
  }
  output_start_ns_ = now_ns();
  out.active_listeners = static_cast<std::uint32_t>(touched_.size());
  for (const graph::NodeId v : touched_) {
    if (tx_stamp_[v] == epoch_) continue;  // half-duplex
    if (tx_count_[v] == 1) {
      out.deliveries.push_back({v, tx_from_[v], pending_payload_[v]});
    } else {
      ++out.collided_count;
      if (model_ == CollisionModel::kDetection) {
        out.collided_nodes.push_back(v);
      }
    }
  }
}

void ScalarMedium::resolve_dense(SparseOutcome& out) {
  const graph::NodeId n = graph_->node_count();
  dense_count_.assign(n, 0);
  for (const graph::NodeId u : txlist_) {
    for (const graph::NodeId v : graph_->neighbors(u)) ++dense_count_[v];
  }
  output_start_ns_ = now_ns();
  // A delivered listener has exactly one transmitting neighbour, so this
  // second traversal emits it exactly once — and in the same first-touch
  // order the frontier path produces.
  for (const graph::NodeId u : txlist_) {
    const Payload p = payload_of_[u];
    for (const graph::NodeId v : graph_->neighbors(u)) {
      if (dense_count_[v] == 1 && tx_stamp_[v] != epoch_) {
        out.deliveries.push_back({v, u, p});
      }
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    // Same "woken" definition as the frontier path: any node with >= 1
    // transmitting neighbour, transmitters included.
    if (dense_count_[v] != 0) ++out.active_listeners;
    if (dense_count_[v] >= 2 && tx_stamp_[v] != epoch_) {
      ++out.collided_count;
      if (model_ == CollisionModel::kDetection) {
        out.collided_nodes.push_back(v);
      }
    }
  }
}

void ScalarMedium::resolve_lanes(std::span<const ActiveTx> tx,
                                 PayloadPlanes payload, int lanes,
                                 KnowledgePlanes best, BatchOutcome& out) {
  const graph::NodeId n = graph_->node_count();
  if (payload.plane_size() != n) {
    throw std::invalid_argument("ScalarMedium: size mismatch");
  }
  if (lanes < 1 || lanes > kMaxLanes || lanes > payload.lane_capacity()) {
    throw std::invalid_argument("ScalarMedium: lanes out of range");
  }
  if (best.plane_size() < n || lanes > best.lane_capacity()) {
    throw std::invalid_argument("ScalarMedium: best too small");
  }
  for (const ActiveTx& e : tx) {
    if (e.node >= n) {
      throw std::invalid_argument("ScalarMedium: transmitter out of range");
    }
  }
  out.clear();
  agg_touched_.clear();
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t bit = std::uint64_t{1} << l;
    lane_tx_.clear();
    lane_payload_.clear();
    for (const ActiveTx& e : tx) {
      if (e.lanes & bit) {
        lane_tx_.push_back(e.node);
        lane_payload_.push_back(payload.at(l, e.node));
      }
    }
    resolve(lane_tx_, lane_payload_, lane_out_);
    out.transmitter_count[l] = lane_out_.transmitter_count;
    out.collided_count[l] = lane_out_.collided_count;
    out.delivered_count[l] =
        static_cast<std::uint32_t>(lane_out_.deliveries.size());
    for (const auto& d : lane_out_.deliveries) {
      if (agg_mask_[d.node] == 0) agg_touched_.push_back(d.node);
      agg_mask_[d.node] |= bit;
      Payload& b = best.at(l, d.node);
      if (b == kNoPayload || d.payload > b) b = d.payload;
    }
    for (const graph::NodeId v : lane_out_.collided_nodes) {
      out.collisions.push_back({v, bit});
    }
  }
  for (const graph::NodeId v : agg_touched_) {
    out.delivered.push_back({v, agg_mask_[v]});
    agg_mask_[v] = 0;
  }
}

}  // namespace radiocast::radio
