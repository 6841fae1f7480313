#include "radio/medium.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "radio/medium_bitslice.hpp"
#include "radio/medium_scalar.hpp"
#include "radio/medium_sharded.hpp"

namespace radiocast::radio {

namespace {

/// Shared "name <-> enum" plumbing for the flag-valued enums; the error
/// message lists the legal values so a typo'd flag fails usefully.
template <class Enum, std::size_t N>
Enum parse_named(std::string_view name, const char* what,
                 const std::array<std::string_view, N>& names) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return static_cast<Enum>(i);
  }
  std::string msg = "unknown ";
  msg += what;
  msg += " '" + std::string(name) + "' (expected";
  const char* sep = " ";
  for (const std::string_view n : names) {
    msg += sep;
    msg += n;
    sep = " | ";
  }
  msg += ")";
  throw std::invalid_argument(msg);
}

}  // namespace

std::string_view to_string(MediumKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kMediumNames.size() ? kMediumNames[i] : "?";
}

MediumKind parse_medium_kind(std::string_view name) {
  return parse_named<MediumKind>(name, "medium", kMediumNames);
}

std::string_view to_string(RecoveryStrategy strategy) {
  const auto i = static_cast<std::size_t>(strategy);
  return i < kRecoveryNames.size() ? kRecoveryNames[i] : "?";
}

RecoveryStrategy parse_recovery_strategy(std::string_view name) {
  return parse_named<RecoveryStrategy>(name, "recovery strategy",
                                       kRecoveryNames);
}

std::uint64_t Medium::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BatchOutcome::clear() {
  delivered.clear();
  deliveries.clear();
  collisions.clear();
  transmitter_count.fill(0);
  delivered_count.fill(0);
  collided_count.fill(0);
  active_listeners = 0;
}

void Medium::resolve_batch(std::span<const std::uint64_t> tx_mask,
                           PayloadPlanes payload, int lanes,
                           BatchOutcome& out, bool with_senders) {
  const graph::NodeId n = graph_->node_count();
  if (tx_mask.size() != n || payload.plane_size() != n) {
    throw std::invalid_argument("Medium::resolve_batch: size mismatch");
  }
  if (lanes < 1 || lanes > kMaxLanes || lanes > payload.lane_capacity()) {
    throw std::invalid_argument("Medium::resolve_batch: lanes out of range");
  }
  out.clear();
  if (agg_mask_.size() != n) {
    agg_mask_.assign(n, 0);
    agg_stamp_.assign(n, 0);
  }
  ++agg_epoch_;
  agg_touched_.clear();
  for (int l = 0; l < lanes; ++l) {
    lane_tx_.clear();
    lane_payload_.clear();
    const std::uint64_t bit = std::uint64_t{1} << l;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (tx_mask[v] & bit) {
        lane_tx_.push_back(v);
        lane_payload_.push_back(payload.at(l, v));
      }
    }
    resolve(lane_tx_, lane_payload_, lane_out_);
    out.transmitter_count[l] = lane_out_.transmitter_count;
    out.collided_count[l] = lane_out_.collided_count;
    out.delivered_count[l] =
        static_cast<std::uint32_t>(lane_out_.deliveries.size());
    for (const auto& d : lane_out_.deliveries) {
      if (agg_stamp_[d.node] != agg_epoch_) {
        agg_stamp_[d.node] = agg_epoch_;
        agg_mask_[d.node] = 0;
        agg_touched_.push_back(d.node);
      }
      agg_mask_[d.node] |= bit;
      if (with_senders) {
        out.deliveries.push_back(
            {d.node, static_cast<std::uint8_t>(l), d.from, d.payload});
      }
    }
    for (const graph::NodeId v : lane_out_.collided_nodes) {
      out.collisions.push_back({v, bit});
    }
  }
  for (const graph::NodeId v : agg_touched_) {
    out.delivered.push_back({v, agg_mask_[v]});
  }
}

void Medium::resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                               PayloadPlanes payload, int lanes,
                               KnowledgePlanes best, BatchOutcome& out) {
  const graph::NodeId n = graph_->node_count();
  if (best.plane_size() < n || lanes > best.lane_capacity()) {
    throw std::invalid_argument("Medium::resolve_batch_max: best too small");
  }
  resolve_batch(tx_mask, payload, lanes, out, /*with_senders=*/true);
  for (const auto& d : out.deliveries) {
    Payload& b = best.at(d.lane, d.node);
    if (b == kNoPayload || d.payload > b) b = d.payload;
  }
  out.deliveries.clear();  // match the backends that never build them
}

template <class ResolveDense>
void Medium::with_active_dense(std::span<const ActiveTx> tx,
                               ResolveDense&& resolve_dense) {
  const graph::NodeId n = graph_->node_count();
  if (active_dense_.size() != n) active_dense_.assign(n, 0);
  auto clear_upto = [&](std::size_t end) {
    for (std::size_t i = 0; i < end; ++i) active_dense_[tx[i].node] = 0;
  };
  for (std::size_t i = 0; i < tx.size(); ++i) {
    if (tx[i].node >= n) {
      // Un-dirty what this call already wrote before reporting the bad
      // entry — the scratch must stay all-zero for the next round.
      clear_upto(i);
      throw std::invalid_argument("Medium: transmitter out of range");
    }
    active_dense_[tx[i].node] |= tx[i].lanes;
  }
  try {
    resolve_dense(std::span<const std::uint64_t>(active_dense_));
  } catch (...) {
    clear_upto(tx.size());
    throw;
  }
  clear_upto(tx.size());
}

void Medium::resolve_batch_active(std::span<const ActiveTx> tx,
                                  PayloadPlanes payload, int lanes,
                                  BatchOutcome& out, bool with_senders) {
  with_active_dense(tx, [&](std::span<const std::uint64_t> mask) {
    resolve_batch(mask, payload, lanes, out, with_senders);
  });
}

void Medium::resolve_batch_max_active(std::span<const ActiveTx> tx,
                                      PayloadPlanes payload, int lanes,
                                      KnowledgePlanes best,
                                      BatchOutcome& out) {
  with_active_dense(tx, [&](std::span<const std::uint64_t> mask) {
    resolve_batch_max(mask, payload, lanes, best, out);
  });
}

std::unique_ptr<Medium> make_medium(MediumKind kind, const graph::Graph& g,
                                    CollisionModel model, int threads,
                                    RecoveryStrategy recovery) {
  std::unique_ptr<Medium> medium;
  switch (kind) {
    case MediumKind::kScalar:
      medium = std::make_unique<ScalarMedium>(g, model);
      break;
    case MediumKind::kBitslice:
      medium = std::make_unique<BitsliceMedium>(g, model);
      break;
    case MediumKind::kSharded:
      medium = std::make_unique<ShardedMedium>(g, model, threads);
      break;
  }
  if (medium == nullptr) throw std::invalid_argument("make_medium: bad kind");
  medium->set_recovery_strategy(recovery);
  return medium;
}

}  // namespace radiocast::radio
