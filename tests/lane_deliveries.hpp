// Test helpers for the one batch entry point, Medium::resolve_lanes.
//
// resolve_lanes only max-folds deliveries into knowledge planes, but
// folding a plane of node ids into kNoPayload-filled planes leaves, for
// every delivered (listener, lane), the id of its unique transmitting
// neighbour — so tests can still compare per-lane sender identity across
// backends, worker counts and recovery strategies.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "radio/medium.hpp"

namespace radiocast::radio::test_util {

/// One delivery in one lane: the listener, the lane and its unique sender.
struct LaneDelivery {
  graph::NodeId node;
  int lane;
  graph::NodeId from;

  bool operator==(const LaneDelivery&) const = default;
};

/// The list form of a transmit mask: one entry per transmitting node, in
/// node order.
inline std::vector<ActiveTx> active_list(
    std::span<const std::uint64_t> tx_mask) {
  std::vector<ActiveTx> tx;
  for (graph::NodeId v = 0; v < tx_mask.size(); ++v) {
    if (tx_mask[v] != 0) tx.push_back({v, tx_mask[v]});
  }
  return tx;
}

/// Resolves one round of `tx` on `medium` over an id-valued payload plane
/// and returns its deliveries in out.delivered order (lanes ascending
/// within a listener). `out` holds the round's masks and counters.
inline std::vector<LaneDelivery> lane_deliveries(Medium& medium,
                                                 std::span<const ActiveTx> tx,
                                                 int lanes,
                                                 BatchOutcome& out) {
  const graph::NodeId n = medium.topology().node_count();
  std::vector<Payload> ids(n);
  for (graph::NodeId v = 0; v < n; ++v) ids[v] = v;
  std::vector<Payload> sender(static_cast<std::size_t>(lanes) * n,
                              kNoPayload);
  const KnowledgePlanes view = KnowledgePlanes::node_major(sender, n);
  medium.resolve_lanes(tx, ids, lanes, view, out);
  std::vector<LaneDelivery> records;
  for (const auto& dm : out.delivered) {
    for (std::uint64_t hit = dm.lanes; hit != 0; hit &= hit - 1) {
      const int lane = std::countr_zero(hit);
      records.push_back(
          {dm.node, lane, static_cast<graph::NodeId>(view.at(lane, dm.node))});
    }
  }
  return records;
}

/// Deliveries ordered by (listener, lane), for comparisons that must not
/// depend on a backend's emission order.
inline std::vector<LaneDelivery> by_listener(std::vector<LaneDelivery> v) {
  std::sort(v.begin(), v.end(),
            [](const LaneDelivery& a, const LaneDelivery& b) {
              return std::tie(a.node, a.lane) < std::tie(b.node, b.lane);
            });
  return v;
}

/// Per-listener OR of a record list's lane masks (delivered or collided).
template <class Record>
std::vector<std::uint64_t> lane_masks(const std::vector<Record>& records,
                                      graph::NodeId n) {
  std::vector<std::uint64_t> m(n, 0);
  for (const auto& r : records) m[r.node] |= r.lanes;
  return m;
}

}  // namespace radiocast::radio::test_util
