// Sharded parallel backend: two-level parallelism over the listener space
// — slices across worker threads x up to 64 Monte-Carlo lanes per slice.
//
// The listener space is cut into SLICES (contiguous CSR intervals balanced
// by the degree prefix sum). The slice layout is a pure function of the
// graph (plus the optional RADIOCAST_SHARD_SLICES override) — never of the
// worker count — and per-slice outputs are merged in slice-index order, so
// the outcome is byte-identical for ANY worker count and ANY steal
// interleaving (pinned by tests/test_medium_sharded.cpp).
//
// Workers run a Chase-Lev-style work-stealing scheme over the slice index
// space: each worker owns a deque (a contiguous range of slice indices,
// packed into one atomic word), pops work from its front, and steals from
// the back of other workers' deques once its own is dry — victims ordered
// topology-aware (same NUMA group first, detected from
// /sys/devices/system/node when available, plain cyclic otherwise). Load
// skew from uneven shard density is absorbed by stealing instead of
// stalling the round on the slowest static shard.
//
// Each slice resolves all 64 lanes at once with the bitslice kernel shapes
// (radio/simd.hpp gather rows, saturating bitplane adds, clearing row-scan
// sender recovery), so the batch entry points no longer fall back to the
// per-lane decomposition: one worker's slice pass is itself 64-way
// bit-parallel. Single-lane resolve() delegates to an owned ScalarMedium:
// one lane gives the pool too little work per slice to pay for the
// fan-out, so scalar is faster at every density. RecoveryStrategy is
// accepted but does not change the path (senders are recovered by row
// scan); outcomes are identical under every strategy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "radio/lane_counter.hpp"
#include "radio/medium.hpp"
#include "radio/medium_scalar.hpp"

namespace radiocast::radio {

class ShardedMedium final : public Medium {
 public:
  /// `threads` is the worker count; 0 defers to the
  /// RADIOCAST_SHARD_THREADS environment variable when set (for hosts
  /// where hardware_concurrency() misreports, e.g. CI containers), else a
  /// hardware-derived default. `slices` is the steal-granularity slice
  /// count; 0 defers to RADIOCAST_SHARD_SLICES when set, else an
  /// adjacency-volume-derived default. The slice layout never depends on
  /// the worker count, so results are a pure function of
  /// (graph, model, slices, input) — the worker count only moves cost.
  ShardedMedium(const graph::Graph& g, CollisionModel model, int threads = 0,
                int slices = 0);
  ~ShardedMedium() override;

  std::string_view name() const override { return "sharded"; }
  /// Worker count (the historical name: one static shard per worker in the
  /// pre-stealing design; tests pin it to the threads knob).
  int shard_count() const { return worker_count_; }
  int worker_count() const { return worker_count_; }
  /// Steal-granularity slice count (worker-count independent).
  int slice_count() const { return static_cast<int>(slices_.size()); }

  /// Single-lane rounds run on the owned scalar medium; its phase timers
  /// fold into this medium's, so callers see one set of counters.
  void resolve(std::span<const graph::NodeId> transmitters,
               std::span<const Payload> tx_payload,
               SparseOutcome& out) override;

  /// Batched entry points: every slice runs the 64-lane bitplane kernel,
  /// so a round is slices-across-workers x lanes-per-slice parallel.
  void resolve_batch(std::span<const std::uint64_t> tx_mask,
                     PayloadPlanes payload, int lanes, BatchOutcome& out,
                     bool with_senders = true) override;
  void resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                         PayloadPlanes payload, int lanes,
                         KnowledgePlanes best, BatchOutcome& out) override;

 private:
  /// One transmitter's row segment inside a slice: row indices
  /// [begin, end) of u's adjacency fall in the slice's listener interval.
  /// Built serially per round (scatter-shaped rounds only) by walking each
  /// transmitter's row once, so the parallel phase never binary-searches.
  struct SliceTx {
    graph::NodeId u;
    std::uint32_t begin;
    std::uint32_t end;
  };

  struct Slice {
    graph::NodeId lo = 0;  // listener interval [lo, hi)
    graph::NodeId hi = 0;
    std::vector<SliceTx> tx;  // this round's transmitters touching me
    std::vector<graph::NodeId> touched;
    std::uint32_t active = 0;
    std::vector<BatchDeliveredMask> delivered_b;
    std::vector<BatchDelivery> deliveries_b;
    std::vector<BatchCollision> collisions_b;
    LaneCounter delivered_tally;
    LaneCounter collided_tally;
  };

  enum class FoldMode : std::uint8_t { kMasksOnly, kSenders, kMaxFold };

  void run_slice(std::size_t si);
  void run_slice_batch_gather(Slice& s);
  void run_slice_batch_scatter(Slice& s);
  /// Emits one listener's lane words into the slice buffers; returns the
  /// win mask (counts the listener as active when one != 0).
  std::uint64_t emit_batch_listener(Slice& s, graph::NodeId v,
                                    std::uint64_t one, std::uint64_t two);
  /// Folds one recovered (listener, sender, lane-hit) group per FoldMode.
  void sink_batch(Slice& s, graph::NodeId v, graph::NodeId u,
                  std::uint64_t hit);
  /// Clearing row scan over v's row for its won lanes (deferred recovery
  /// on the scatter shape).
  void rowscan_batch(Slice& s, graph::NodeId v, std::uint64_t win);
  /// Const-payload shortcut: fold const_value_ into v's won lanes with no
  /// sender identification (see the bitslice const-fold).
  void fold_const_batch(graph::NodeId v, std::uint64_t win);

  /// Shared prologue of the batch entry points + the parallel phase + the
  /// slice-ordered merge.
  void run_batch(std::span<const std::uint64_t> tx_mask, PayloadPlanes payload,
                 int lanes, BatchOutcome& out, FoldMode mode,
                 KnowledgePlanes best);

  /// Builds each slice's SliceTx list by walking txlist_ rows once
  /// (node_slice_ gives O(1) slice lookup; segments emerge from slice
  /// transitions along the sorted row).
  void build_slice_tx();

  /// Runs all slices across the pool (or inline when single-worker) and
  /// waits for completion.
  void kick_and_wait();
  void worker_loop(std::size_t w);
  /// Own-deque pop (front) / steal (back) over the packed {lo,hi} range.
  static bool pop_front(std::atomic<std::uint64_t>& range, std::uint32_t& idx);
  static bool steal_back(std::atomic<std::uint64_t>& range,
                         std::uint32_t& idx);

  std::vector<Slice> slices_;
  std::vector<std::uint32_t> node_slice_;  // node -> slice index
  int worker_count_ = 1;

  // Round context: written serially before the parallel phase, read-only
  // inside it. gather_ picks the slice kernel: 64-lane gather (simd::
  // gather_row per listener) or saturating scatter + drain.
  bool gather_ = false;
  FoldMode fold_ = FoldMode::kMasksOnly;
  const std::uint64_t* round_mask_ = nullptr;
  PayloadPlanes round_payload_{std::span<const Payload>{}};
  KnowledgePlanes round_best_{std::span<Payload>{}};
  std::uint64_t round_live_ = 0;
  bool const_fold_ = false;
  Payload const_value_ = kNoPayload;

  // Single-lane rounds (see resolve()).
  ScalarMedium scalar_;

  // Batch round state: this round's transmitters, and per-listener
  // saturation words, all-zero between rounds (each slice's drain
  // re-zeroes what its scatter dirtied; slices touch disjoint intervals,
  // so workers share the arrays without locks).
  std::vector<graph::NodeId> txlist_;
  std::vector<std::uint64_t> one_;
  std::vector<std::uint64_t> two_;
  LaneCounter tx_tally_;
  int round_lanes_ = 1;

  // Work-stealing state: per-worker packed {next, end} slice ranges plus
  // the steal order (same topology group first).
  std::vector<std::atomic<std::uint64_t>> ranges_;
  std::vector<std::vector<std::size_t>> steal_order_;

  // Per-worker steal/finish accounting for one round, written under mu_
  // when a worker finishes and folded into timers_ (steal_attempts /
  // steals / idle_ns) by kick_and_wait after the generation completes.
  struct WorkerStats {
    std::uint64_t steal_attempts = 0;
    std::uint64_t steals = 0;
    std::uint64_t finish_ns = 0;
  };
  std::vector<WorkerStats> worker_stats_;

  // Pool synchronisation: kick_and_wait bumps job_gen_ and waits until
  // every worker has drained every deque for that generation.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t job_gen_ = 0;
  std::size_t done_workers_ = 0;
  bool stop_ = false;
};

}  // namespace radiocast::radio
