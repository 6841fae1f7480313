// Pluggable interference-resolution backends for the synchronous radio
// medium.
//
// Medium is the seam between protocol logic and the collision kernel:
// every round a transmitter set goes in and the successful receptions
// (plus collision evidence) come out. It has two round entry points:
//
//   resolve()       — one instance: a transmitter list with one payload
//                     each; per-delivery (listener, sender, payload) out
//   resolve_lanes() — up to 64 Monte-Carlo lanes: an ActiveTx list of
//                     (node, lane mask) entries in, each delivery
//                     max-folded into per-lane knowledge planes, delivered
//                     masks and counters out. Every batched protocol in the
//                     paper (Decay carrying Compete's max(S), the BGI/CR
//                     yardsticks) is such a max-relay
//
// Two backends implement it:
//
//   scalar   — epoch-stamped reference kernel; resolve() adaptively picks a
//              frontier (transmitter-scatter) or dense (full-array) path
//              from the transmitter density, and resolve_lanes()
//              decomposes into one resolve() per lane
//   bitslice — 64-replication-wide batch kernel: per-listener ">=1 tx" and
//              ">=2 tx" bitplanes updated with bitwise saturating adds, so
//              one CSR traversal resolves a round for up to 64 independent
//              Monte-Carlo lanes at once. Its prologue walks the list
//              itself, so a sparse round costs O(active work) — never an
//              O(n) mask scan — and with more than one worker its dense
//              (gather) rounds run on a slice pool over degree-balanced
//              listener slices. Its resolve() is the same fold over a
//              one-lane plane of sender ids
//
// Both backends implement identical interference semantics — the
// cross-backend differential test (tests/test_medium_backends.cpp) holds
// them to it on random instances under both collision models. Determinism
// guarantees: for a fixed backend and input, the outcome is always
// byte-identical, for any bitslice worker count (pooled slices merge in
// slice order, independent of OS scheduling). Delivery order within an
// outcome is "first touch" order; consumers must not depend on it beyond
// determinism.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "radio/model.hpp"

namespace radiocast::radio {

/// One successful reception in a round.
struct SparseDelivery {
  graph::NodeId node;  // the listener
  graph::NodeId from;  // the unique transmitting neighbour
  Payload payload;

  bool operator==(const SparseDelivery&) const = default;
};

/// Round outcome in sparse form: only the nodes that received (or, under
/// collision detection, detectably collided) are listed.
struct SparseOutcome {
  std::vector<SparseDelivery> deliveries;
  /// Listeners that perceived >= 2 transmitting neighbours. Filled only
  /// under CollisionModel::kDetection — mirroring Reception::kCollision on
  /// the dense path — since without detection a collision is
  /// indistinguishable from silence and must not leak to protocols.
  std::vector<graph::NodeId> collided_nodes;
  std::uint32_t transmitter_count = 0;
  std::uint32_t collided_count = 0;
  /// Distinct listeners adjacent to >= 1 transmitter this round (the
  /// "woken" set — transmitters themselves included when a neighbour also
  /// transmits). A cost diagnostic, NOT part of the semantic outcome:
  /// backends that don't track it report 0, and differential equality is
  /// never asserted on it across backends that do.
  std::uint32_t active_listeners = 0;
};

/// Which backend resolves interference. kScalar is the reference; the
/// others trade generality for throughput (see the file comment).
enum class MediumKind : std::uint8_t { kScalar, kBitslice };

/// Canonical backend names, indexed by MediumKind — the single source of
/// truth for to_string, parse_medium_kind, and flag validation.
inline constexpr std::array<std::string_view, 2> kMediumNames{"scalar",
                                                              "bitslice"};

std::string_view to_string(MediumKind kind);
/// Parses a kMediumNames entry; throws std::invalid_argument otherwise
/// (message lists the legal values).
MediumKind parse_medium_kind(std::string_view name);

/// How a backend that defers sender identification (the bitslice batch
/// kernel) recovers, for each delivered (listener, lane), WHO transmitted.
/// Both strategies re-walk each winning listener's CSR row against the
/// transmit masks until every won lane names its sender:
///
///   kAuto     — fused into the traversal on gather (dense) rounds, while
///               the row is still in cache; a deferred pass over the
///               delivered listeners on scatter rounds. A lane-invariant
///               max-fold whose transmitters all carry one value folds
///               with no sender identification at all
///   kRowScan  — the deferred pass on every round, no const-fold: the
///               test/bench pin for the general path
///
/// Results are identical under both (and on backends that identify
/// senders inline and ignore the knob entirely); only the cost moves.
/// Pinned by the recovery differential tests.
enum class RecoveryStrategy : std::uint8_t { kAuto, kRowScan };

/// Canonical strategy names, indexed by RecoveryStrategy — the single
/// source of truth for to_string, parse_recovery_strategy, and the
/// --recovery= flag validation.
inline constexpr std::array<std::string_view, 2> kRecoveryNames{"auto",
                                                                "rowscan"};

std::string_view to_string(RecoveryStrategy strategy);
/// Parses a kRecoveryNames entry; throws std::invalid_argument otherwise
/// (message lists the legal values).
RecoveryStrategy parse_recovery_strategy(std::string_view name);

/// Cumulative wall-time breakdown of a medium's resolve calls, split along
/// the batch kernel's phases so "where does a round go" is measured, not
/// asserted. Backends attribute what they can cleanly separate (fused
/// phases count toward the phase they are fused into) and leave the rest
/// zero; the round counters say which recovery path ran.
struct PhaseTimers {
  std::uint64_t traverse_ns = 0;  // plane accumulation / kernel traversal
  std::uint64_t output_ns = 0;    // output scan: masks, tallies, re-zeroing
  std::uint64_t recover_ns = 0;   // sender recovery (row scan)
  /// Always 0: every round reports traverse_ns/output_ns. The fields stay
  /// because the sweep-journal record layout and the perfbench report
  /// carry them (like idplane_rounds below).
  std::uint64_t enqueue_ns = 0;
  std::uint64_t drain_ns = 0;
  /// Cumulative woken-listener count across rounds (sum of each round's
  /// SparseOutcome/BatchOutcome active_listeners); 0 on backends that
  /// don't track the active set.
  std::uint64_t active_listeners = 0;
  std::uint64_t rounds = 0;       // resolve calls accumulated
  std::uint64_t rowscan_rounds = 0;   // rounds recovered by row scan
  /// Always 0: id-plane recovery is gone, but the field stays because the
  /// sweep-journal record layout and the perfbench report carry it.
  std::uint64_t idplane_rounds = 0;
  /// Rounds where the max-fold proved every transmitter carried one
  /// payload value, so deliveries folded with no sender identification.
  std::uint64_t constfold_rounds = 0;
  void reset() { *this = PhaseTimers{}; }
};

/// Lane capacity of resolve_lanes (width of the bitplane words).
constexpr int kMaxLanes = 64;

/// Mask with the low `lanes` bits set — the "every lane" word for a batch
/// of that width (shift-by-64 safe). Requires 1 <= lanes <= kMaxLanes.
constexpr std::uint64_t lane_mask(int lanes) {
  return lanes >= kMaxLanes ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << lanes) - 1;
}

/// Per-lane payload view for resolve_lanes: entry (lane, node)
/// is what the node transmits in that lane. Two layouts, both expressed
/// through one dual-stride address function
///
///   at(lane, v) = data[lane * lane_stride + v * node_stride]
///
///   * shared — one node_count-sized plane broadcast to every lane
///     (lane_stride 0). The lane-invariant contract, the natural fit for
///     floods where every lane relays the same constant.
///   * node-major — a node_count x lanes buffer where node v's lane words
///     occupy [v * lanes, (v+1) * lanes): one contiguous cache-line run
///     per listener. This is the layout protocol knowledge planes (best[])
///     use, so the max-fold's per-listener writes are sequential.
///
/// The view is non-owning; the buffer must outlive the call it is passed
/// to (media never retain it across calls).
class PayloadPlanes {
 public:
  /// Lane-invariant plane, shared by every lane. Implicit on purpose:
  /// existing span/vector call sites keep working unchanged.
  PayloadPlanes(std::span<const Payload> plane)
      : data_(plane.data()), plane_size_(plane.size()) {}
  PayloadPlanes(const std::vector<Payload>& plane)
      : PayloadPlanes(std::span<const Payload>(plane)) {}

  /// Node-major planes over a (node_count x lanes) buffer: node v's lane
  /// words are the contiguous run data[v * lanes .. v * lanes + lanes).
  static PayloadPlanes node_major(std::span<const Payload> data,
                                  std::size_t node_count) {
    const int capacity = capacity_for(data.size(), node_count);
    return PayloadPlanes(data.data(), node_count, 1,
                         static_cast<std::size_t>(capacity), capacity);
  }

  /// What `v` transmits in lane `lane`.
  Payload at(int lane, graph::NodeId v) const {
    return data_[lane_stride_ * static_cast<std::size_t>(lane) +
                 node_stride_ * static_cast<std::size_t>(v)];
  }
  /// Base pointer of node `v`'s lane run; lane l lives at
  /// row(v)[l * lane_stride()]. Hot loops hoist this so one generic code
  /// path covers every layout with no branches.
  const Payload* row(graph::NodeId v) const {
    return data_ + node_stride_ * static_cast<std::size_t>(v);
  }
  std::size_t lane_stride() const { return lane_stride_; }
  std::size_t node_stride() const { return node_stride_; }
  /// Nodes covered by each plane.
  std::size_t plane_size() const { return plane_size_; }
  /// Lanes the buffer can serve (kMaxLanes when shared).
  int lane_capacity() const { return lane_capacity_; }
  bool lane_invariant() const { return lane_stride_ == 0; }

 private:
  static int capacity_for(std::size_t size, std::size_t node_count) {
    return node_count == 0
               ? kMaxLanes
               : static_cast<int>(
                     std::min<std::size_t>(kMaxLanes, size / node_count));
  }

  PayloadPlanes(const Payload* data, std::size_t plane_size,
                std::size_t lane_stride, std::size_t node_stride,
                int lane_capacity)
      : data_(data),
        plane_size_(plane_size),
        lane_stride_(lane_stride),
        node_stride_(node_stride),
        lane_capacity_(lane_capacity) {}

  const Payload* data_;
  std::size_t plane_size_;
  std::size_t lane_stride_ = 0;
  std::size_t node_stride_ = 1;
  int lane_capacity_ = kMaxLanes;
};

/// Mutable per-lane knowledge-plane view — the fold target of
/// resolve_lanes. Same dual-stride address function as PayloadPlanes
/// (shared / node-major, plus the implicit one-lane plane); node-major is
/// the layout the batched protocol cores use, so each listener's up-to-64
/// folded lane words land in one contiguous cache-line run.
class KnowledgePlanes {
 public:
  /// Single shared plane — the scalar facades' adapter (1 lane, so the
  /// layout distinction is vacuous). Implicit on purpose: span/vector
  /// call sites that fold one lane keep working unchanged.
  KnowledgePlanes(std::span<Payload> plane)
      : data_(plane.data()), plane_size_(plane.size()), lane_capacity_(1) {}
  KnowledgePlanes(std::vector<Payload>& plane)
      : KnowledgePlanes(std::span<Payload>(plane)) {}

  /// One node_count-sized plane every lane folds into (lane_stride 0):
  /// node v's word ends up as the max of what it received in any lane.
  /// For callers that only read the delivered masks (a fixed-value flood),
  /// so a 64-lane round needs n words of fold target, not 64 x n.
  static KnowledgePlanes shared(std::span<Payload> plane) {
    return KnowledgePlanes(plane.data(), plane.size(), 0, 1, kMaxLanes);
  }

  /// Node-major planes over a (node_count x lanes) buffer: node v's lane
  /// words are the contiguous run data[v * lanes .. v * lanes + lanes).
  static KnowledgePlanes node_major(std::span<Payload> data,
                                    std::size_t node_count) {
    const int capacity = capacity_for(data.size(), node_count);
    return KnowledgePlanes(data.data(), node_count, 1,
                           static_cast<std::size_t>(capacity), capacity);
  }

  Payload& at(int lane, graph::NodeId v) const {
    return data_[lane_stride_ * static_cast<std::size_t>(lane) +
                 node_stride_ * static_cast<std::size_t>(v)];
  }
  /// Base pointer of node `v`'s lane run; lane l lives at
  /// row(v)[l * lane_stride()].
  Payload* row(graph::NodeId v) const {
    return data_ + node_stride_ * static_cast<std::size_t>(v);
  }
  std::size_t lane_stride() const { return lane_stride_; }
  std::size_t node_stride() const { return node_stride_; }
  std::size_t plane_size() const { return plane_size_; }
  int lane_capacity() const { return lane_capacity_; }

 private:
  static int capacity_for(std::size_t size, std::size_t node_count) {
    return node_count == 0
               ? kMaxLanes
               : static_cast<int>(
                     std::min<std::size_t>(kMaxLanes, size / node_count));
  }

  KnowledgePlanes(Payload* data, std::size_t plane_size,
                  std::size_t lane_stride, std::size_t node_stride,
                  int lane_capacity)
      : data_(data),
        plane_size_(plane_size),
        lane_stride_(lane_stride),
        node_stride_(node_stride),
        lane_capacity_(lane_capacity) {}

  Payload* data_;
  std::size_t plane_size_;
  std::size_t lane_stride_ = 0;
  std::size_t node_stride_ = 1;
  int lane_capacity_ = 1;
};

/// One transmitter of a batched round: the node plus the lane set it
/// transmits in. Handing the bitslice backend the transmitter list
/// directly lets a round cost O(sum of active degrees) with no O(n) mask
/// scan. Entries with the same node are allowed; their lane masks OR
/// together (the payload comes from the PayloadPlanes view, so there is
/// nothing else to merge). Entries with a zero lane mask are skipped.
struct ActiveTx {
  graph::NodeId node;
  std::uint64_t lanes;

  bool operator==(const ActiveTx&) const = default;
};

/// Aggregate view of one listener's receptions: the lane set in which it
/// had exactly one transmitting neighbour. The bit-sliced counterpart of
/// SparseDelivery — 64 lanes of delivery evidence in one word.
struct BatchDeliveredMask {
  graph::NodeId node;
  std::uint64_t lanes;

  bool operator==(const BatchDeliveredMask&) const = default;
};

/// Listener that detectably collided, with the lane set it collided in.
/// Entries for the same node may be split across several records (the
/// per-lane fallback emits one per lane); consumers should OR the masks.
struct BatchCollision {
  graph::NodeId node;
  std::uint64_t lanes;
};

/// Outcome of one batched round across up to kMaxLanes lanes.
struct BatchOutcome {
  /// One entry per listener that received in >= 1 lane. Listeners appear
  /// at most once; entries cover every delivery. What was delivered is in
  /// the knowledge planes the round folded into.
  std::vector<BatchDeliveredMask> delivered;
  /// Filled only under CollisionModel::kDetection (see SparseOutcome).
  std::vector<BatchCollision> collisions;
  std::array<std::uint32_t, kMaxLanes> transmitter_count{};
  std::array<std::uint32_t, kMaxLanes> delivered_count{};
  std::array<std::uint32_t, kMaxLanes> collided_count{};
  /// Distinct listeners adjacent to >= 1 transmitter in >= 1 lane (see
  /// SparseOutcome::active_listeners): a cost diagnostic, 0 on backends
  /// that don't track it, never part of outcome equality.
  std::uint32_t active_listeners = 0;

  void clear();
};

/// Interference-resolution backend interface. Implementations own their
/// scratch state (so they are not thread-safe per instance, matching the
/// old Network) and alias the graph — the graph must outlive the medium.
class Medium {
 public:
  Medium(const graph::Graph& g, CollisionModel model)
      : graph_(&g), model_(model) {}
  virtual ~Medium() = default;
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  virtual std::string_view name() const = 0;
  const graph::Graph& topology() const { return *graph_; }
  CollisionModel collision_model() const { return model_; }

  /// Sender-recovery strategy knob (see RecoveryStrategy). Only honoured
  /// by backends that defer sender identification (bitslice); the others
  /// identify senders inline and produce identical results regardless.
  RecoveryStrategy recovery_strategy() const { return recovery_; }
  void set_recovery_strategy(RecoveryStrategy strategy) {
    recovery_ = strategy;
  }

  /// Per-phase timing accumulated since construction / the last reset.
  /// Zeroed fields mean the backend does not instrument that phase.
  const PhaseTimers& phase_timers() const { return timers_; }
  void reset_phase_timers() { timers_.reset(); }

  /// Unified single-instance entry point: resolves one round given only
  /// the transmitter list (everyone else listens). Duplicate transmitters
  /// are counted once (first occurrence's payload wins); transmitters are
  /// half-duplex and never receive. Every transmitter must be < node_count
  /// (throws std::invalid_argument otherwise, leaving the medium usable).
  /// Overwrites `out`. Counters are the caller's job (Network aggregates
  /// across rounds).
  virtual void resolve(std::span<const graph::NodeId> transmitters,
                       std::span<const Payload> tx_payload,
                       SparseOutcome& out) = 0;

  /// Batched entry point for max-relay protocols (Decay, Compete): the
  /// round's transmitters arrive as (node, lane mask) entries (bits >=
  /// `lanes` are ignored; duplicate nodes OR their masks; every node must
  /// be < node_count, else std::invalid_argument with the medium left
  /// usable). `payload` supplies what each node sends per lane — one
  /// shared plane or per-lane planes (see PayloadPlanes). Every delivery
  /// (v, lane) max-combines its payload straight into the knowledge planes,
  /// best.at(lane, v) = max(best, delivered) with kNoPayload as "nothing
  /// yet", instead of materializing per-delivery records; node-major
  /// `best` is the fast path (each listener's folded lane words are one
  /// contiguous run). Folding a plane of node ids into kNoPayload-filled
  /// planes names each delivery's unique sender. `out` is overwritten with
  /// the delivered masks, collision masks and per-lane counters. Scalar
  /// decomposes into per-lane resolve() calls; bitslice runs the
  /// one-traversal bitplane kernel.
  virtual void resolve_lanes(std::span<const ActiveTx> tx,
                             PayloadPlanes payload, int lanes,
                             KnowledgePlanes best, BatchOutcome& out) = 0;

 protected:
  /// Monotonic nanosecond clock for the phase timers.
  static std::uint64_t now_ns();

  const graph::Graph* graph_;
  CollisionModel model_;
  RecoveryStrategy recovery_ = RecoveryStrategy::kAuto;
  PhaseTimers timers_;
};

/// Factory. `threads` only matters for kBitslice: its gather-round worker
/// count, 0 meaning the RADIOCAST_SHARD_THREADS environment variable when
/// set, else 1 (serial). `recovery` seeds the sender-recovery knob (only
/// the bitslice backend honours it).
std::unique_ptr<Medium> make_medium(
    MediumKind kind, const graph::Graph& g, CollisionModel model,
    int threads = 0, RecoveryStrategy recovery = RecoveryStrategy::kAuto);

}  // namespace radiocast::radio
