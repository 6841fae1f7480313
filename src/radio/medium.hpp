// Pluggable interference-resolution backends for the synchronous radio
// medium.
//
// Medium is the seam between protocol logic and the collision kernel:
// every round a transmitter set goes in and the successful receptions
// (plus collision evidence) come out. Three backends implement it:
//
//   scalar   — epoch-stamped reference kernel; resolve() adaptively picks a
//              frontier (transmitter-scatter) or dense (full-array) path
//              from the transmitter density
//   bitslice — 64-replication-wide batch kernel: per-listener ">=1 tx" and
//              ">=2 tx" bitplanes updated with bitwise saturating adds, so
//              one CSR traversal resolves a round for up to 64 independent
//              Monte-Carlo lanes at once. Its resolve_batch_active entry
//              takes the sparse transmitter list directly, so a sparse
//              round costs O(active work) — never an O(n) mask scan
//   sharded  — thread-pooled kernel that cuts the listener space into
//              contiguous CSR shards (balanced by the degree prefix sum)
//              and resolves 64-lane batches in parallel with a
//              deterministic merge; single-lane rounds run on scalar
//
// All backends implement identical interference semantics — the
// cross-backend differential test (tests/test_medium_backends.cpp) holds
// them to it on random instances under both collision models. Determinism
// guarantees: for a fixed backend and input, the outcome is always
// byte-identical (the sharded backend's merge is ordered by shard index,
// independent of OS scheduling). Delivery order within an outcome is
// "first touch" order for scalar/bitslice and shard-major first-touch
// order for sharded batches; consumers must not depend on it beyond
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
enum class MediumKind : std::uint8_t { kScalar, kBitslice, kSharded };

/// Canonical backend names, indexed by MediumKind — the single source of
/// truth for to_string, parse_medium_kind, and flag validation.
inline constexpr std::array<std::string_view, 3> kMediumNames{
    "scalar", "bitslice", "sharded"};

std::string_view to_string(MediumKind kind);
/// Parses a kMediumNames entry; throws std::invalid_argument otherwise
/// (message lists the legal values).
MediumKind parse_medium_kind(std::string_view name);

/// How a backend that defers sender identification (the bitslice batch
/// kernel) recovers, for each delivered (listener, lane), WHO transmitted:
///
///   kRowScan  — re-walk each winning listener's CSR row against the
///               transmit masks until every won lane names its sender
///               (output-sized, but random reads over the whole adjacency
///               when most listeners win somewhere)
///   kIdPlanes — accumulate ceil(log2 n) sender-id XOR planes per touched
///               listener during the traversal itself; on a won lane the
///               XOR of the transmitted ids IS the unique sender's id, so
///               recovery reads it back in O(idbits) with no second CSR pass
///   kAuto     — predict the cheaper one per round: id planes cost
///               ~idbits x traversal volume, the row scan ~the delivered
///               row volume of the previous sender-recovering round
///
/// Results are identical under every strategy (and on backends that
/// identify senders inline and ignore the knob entirely); only the cost
/// moves. Pinned by the recovery differential tests.
enum class RecoveryStrategy : std::uint8_t { kAuto, kRowScan, kIdPlanes };

/// Canonical strategy names, indexed by RecoveryStrategy — the single
/// source of truth for to_string, parse_recovery_strategy, and the
/// --recovery= flag validation.
inline constexpr std::array<std::string_view, 3> kRecoveryNames{
    "auto", "rowscan", "idplanes"};

std::string_view to_string(RecoveryStrategy strategy);
/// Parses a kRecoveryNames entry; throws std::invalid_argument otherwise
/// (message lists the legal values).
RecoveryStrategy parse_recovery_strategy(std::string_view name);

/// Cumulative wall-time breakdown of a medium's resolve calls, split along
/// the batch kernel's phases so "where does a round go" is measured, not
/// asserted. Backends attribute what they can cleanly separate (fused
/// phases count toward the phase they are fused into) and leave the rest
/// zero; the rowscan/idplane round counters say which recovery path ran.
struct PhaseTimers {
  std::uint64_t traverse_ns = 0;  // plane accumulation / kernel traversal
  std::uint64_t output_ns = 0;    // output scan: masks, tallies, re-zeroing
  std::uint64_t recover_ns = 0;   // sender recovery (row scan or id planes)
  /// Sparse-list phases (bitslice rounds entered through
  /// resolve_batch_active or resolve()): the transmitter-list prologue plus
  /// traversal, and the output scan. Those rounds report these instead of
  /// traverse_ns/output_ns, so list-driven and mask-driven cost stay apart.
  std::uint64_t enqueue_ns = 0;
  std::uint64_t drain_ns = 0;
  /// Cumulative woken-listener count across rounds (sum of each round's
  /// SparseOutcome/BatchOutcome active_listeners); 0 on backends that
  /// don't track the active set.
  std::uint64_t active_listeners = 0;
  std::uint64_t rounds = 0;       // resolve calls accumulated
  std::uint64_t rowscan_rounds = 0;   // rounds recovered by row scan
  std::uint64_t idplane_rounds = 0;   // rounds recovered from id planes
  /// Rounds where the max-fold proved every transmitter carried one
  /// payload value, so deliveries folded with no sender identification.
  std::uint64_t constfold_rounds = 0;
  /// Work-stealing pool behaviour (the sharded backend; all zero elsewhere
  /// and in single-worker mode): steal_back attempts against other
  /// workers' deques, the subset that claimed a slice, and the cumulative
  /// ns workers sat finished while the round's slowest worker was still
  /// running (the load-imbalance tail stealing could not absorb).
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t idle_ns = 0;
  void reset() { *this = PhaseTimers{}; }
};

/// Lane capacity of the batch entry point (width of the bitplane words).
constexpr int kMaxLanes = 64;

/// Mask with the low `lanes` bits set — the "every lane" word for a batch
/// of that width (shift-by-64 safe). Requires 1 <= lanes <= kMaxLanes.
constexpr std::uint64_t lane_mask(int lanes) {
  return lanes >= kMaxLanes ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << lanes) - 1;
}

/// Per-lane payload view for the batched entry points: entry (lane, node)
/// is what the node transmits in that lane. Three layouts, all expressed
/// through one dual-stride address function
///
///   at(lane, v) = data[lane * lane_stride + v * node_stride]
///
///   * shared — one node_count-sized plane broadcast to every lane
///     (lane_stride 0). The original lane-invariant contract, still the
///     natural fit for floods where every lane relays the same constant.
///   * lane-major — a lanes x node_count buffer where plane l occupies
///     [l * node_count, (l+1) * node_count). Kept as a view adapter for
///     scalar facades and per-lane extraction.
///   * node-major — a node_count x lanes buffer where node v's lane words
///     occupy [v * lanes, (v+1) * lanes): one contiguous cache-line run
///     per listener. This is the layout protocol knowledge planes (best[])
///     use, so the max-fold's per-listener writes are sequential instead
///     of strided across planes.
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

  /// Lane-major planes over a (lanes x node_count) buffer; the number of
  /// lanes served is data.size() / node_count.
  static PayloadPlanes lane_major(std::span<const Payload> data,
                                  std::size_t node_count) {
    const int capacity = capacity_for(data.size(), node_count);
    return PayloadPlanes(data.data(), node_count, node_count, 1, capacity);
  }

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

/// Mutable per-lane knowledge-plane view — the fold target of the
/// resolve_batch_max entry points. Same dual-stride address function as
/// PayloadPlanes (shared / lane-major / node-major); node-major is the
/// layout the batched protocol cores use, so each listener's up-to-64
/// folded lane words land in one contiguous cache-line run instead of the
/// old strided best[lane * n + v] scatter.
class KnowledgePlanes {
 public:
  /// Single shared plane — the scalar facades' adapter (1 lane, so the
  /// layout distinction is vacuous). Implicit on purpose: span/vector
  /// call sites that fold one lane keep working unchanged.
  KnowledgePlanes(std::span<Payload> plane)
      : data_(plane.data()), plane_size_(plane.size()), lane_capacity_(1) {}
  KnowledgePlanes(std::vector<Payload>& plane)
      : KnowledgePlanes(std::span<Payload>(plane)) {}

  /// Lane-major planes over a (lanes x node_count) buffer (view adapter
  /// for consumers that still want plane-contiguous extraction).
  static KnowledgePlanes lane_major(std::span<Payload> data,
                                    std::size_t node_count) {
    const int capacity = capacity_for(data.size(), node_count);
    return KnowledgePlanes(data.data(), node_count, node_count, 1, capacity);
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

/// One transmitter of a batched round in sparse form: the node plus the
/// lane set it transmits in. Handing the bitslice backend the transmitter
/// list directly lets a round cost O(sum of active degrees) with no O(n)
/// mask scan. Entries with the
/// same node are allowed; their lane masks OR together (the payload comes
/// from the PayloadPlanes view, so there is nothing else to merge).
struct ActiveTx {
  graph::NodeId node;
  std::uint64_t lanes;

  bool operator==(const ActiveTx&) const = default;
};

/// One successful reception in one lane of a batched round.
struct BatchDelivery {
  graph::NodeId node;
  std::uint8_t lane;
  graph::NodeId from;
  Payload payload;

  bool operator==(const BatchDelivery&) const = default;
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
  /// Always filled: one entry per listener that received in >= 1 lane.
  /// Listeners appear at most once; entries cover every delivery.
  std::vector<BatchDeliveredMask> delivered;
  /// Per-delivery sender + payload detail. Filled only when resolve_batch
  /// runs with_senders — recovering the unique sender costs an extra row
  /// scan per delivered listener, which mask-only consumers (Monte-Carlo
  /// counting, flood frontiers) don't want to pay.
  std::vector<BatchDelivery> deliveries;
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

  /// Batched entry point: bit l of tx_mask[v] says whether v transmits in
  /// replication lane l (bits >= `lanes` are ignored); `payload` supplies
  /// what each node sends per lane — either one shared plane (the original
  /// lane-invariant contract) or lane-major per-lane planes, so batched
  /// protocols can relay lane-local state (see PayloadPlanes).
  /// `with_senders` opts into the per-delivery sender/payload detail
  /// (out.deliveries); the aggregate delivered masks and all counters are
  /// produced either way. The default implementation decomposes into
  /// per-lane resolve() calls; the bitslice backend overrides it with the
  /// one-traversal bitplane kernel.
  virtual void resolve_batch(std::span<const std::uint64_t> tx_mask,
                             PayloadPlanes payload, int lanes,
                             BatchOutcome& out, bool with_senders = true);

  /// Fold variant of resolve_batch for max-relay protocols (Decay,
  /// Compete): every delivery (v, lane) max-combines its payload straight
  /// into the knowledge planes — best.at(lane, v) = max(best, delivered)
  /// with kNoPayload as "nothing yet" — instead of materializing
  /// per-delivery records. The view accepts any KnowledgePlanes layout;
  /// node-major is the fast path (each listener's folded lane words are
  /// one contiguous run). `out` carries the delivered masks and counters;
  /// out.deliveries is left empty (the whole point is not to build it:
  /// for a 64-lane batch that is millions of records per replication
  /// sweep). Results are identical to running resolve_batch with senders
  /// and folding the deliveries afterwards.
  virtual void resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                                 PayloadPlanes payload, int lanes,
                                 KnowledgePlanes best, BatchOutcome& out);

  /// Sparse batched entry point: the transmitter set arrives as a list of
  /// (node, lane mask) entries instead of an n-word dense mask, so a
  /// backend that can exploit sparsity (bitslice) resolves the round in
  /// O(active work) with no per-node scan. Duplicate nodes OR their lane
  /// masks; entries must satisfy node < node_count (throws otherwise).
  /// Semantics are identical to resolve_batch over the equivalent dense
  /// mask — the default implementation materialises that mask into
  /// lazily-cleared scratch and delegates, so every backend accepts the
  /// sparse form and differential tests can drive them all through it.
  virtual void resolve_batch_active(std::span<const ActiveTx> tx,
                                    PayloadPlanes payload, int lanes,
                                    BatchOutcome& out,
                                    bool with_senders = true);

  /// Fold variant of resolve_batch_active (see resolve_batch_max).
  virtual void resolve_batch_max_active(std::span<const ActiveTx> tx,
                                        PayloadPlanes payload, int lanes,
                                        KnowledgePlanes best,
                                        BatchOutcome& out);

 protected:
  /// Monotonic nanosecond clock for the phase timers.
  static std::uint64_t now_ns();

  const graph::Graph* graph_;
  CollisionModel model_;
  RecoveryStrategy recovery_ = RecoveryStrategy::kAuto;
  PhaseTimers timers_;

 private:
  /// The default sparse adapters' shared body: ORs `tx` into active_dense_
  /// (range-checked), runs `resolve_dense(mask)`, and leaves the scratch
  /// all-zero again whether or not anything threw.
  template <class ResolveDense>
  void with_active_dense(std::span<const ActiveTx> tx,
                         ResolveDense&& resolve_dense);

  // Scratch for the default per-lane resolve_batch decomposition.
  std::vector<graph::NodeId> lane_tx_;
  std::vector<Payload> lane_payload_;
  std::vector<std::uint64_t> agg_mask_;
  std::vector<std::uint64_t> agg_stamp_;
  std::vector<graph::NodeId> agg_touched_;
  std::uint64_t agg_epoch_ = 0;
  SparseOutcome lane_out_;
  // Dense-mask scratch for the default resolve_batch_active adapter,
  // cleared sparsely after each call so repeated sparse rounds never pay
  // an O(n) wipe (the adapter itself still delegates to the dense kernel).
  std::vector<std::uint64_t> active_dense_;
};

/// Factory. `threads` only matters for kSharded: the shard/worker count,
/// 0 meaning a hardware-derived default. `recovery` seeds the
/// sender-recovery knob (only the bitslice backend honours it).
std::unique_ptr<Medium> make_medium(
    MediumKind kind, const graph::Graph& g, CollisionModel model,
    int threads = 0, RecoveryStrategy recovery = RecoveryStrategy::kAuto);

}  // namespace radiocast::radio
