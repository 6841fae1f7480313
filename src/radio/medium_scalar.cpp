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

}  // namespace radiocast::radio
