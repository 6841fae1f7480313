// Bit-sliced batch backend: resolves one round for up to 64 independent
// Monte-Carlo lanes with one CSR traversal.
//
// Per listener it keeps two bitplane words, the ">= 1 tx" / ">= 2 tx"
// saturation planes, updated with a bitwise saturating add
// (two |= one & m; one |= m). A lane delivers where exactly one neighbour
// transmitted and the listener was silent — pure bitplane arithmetic.
// Senders are recovered by row scan: re-walk each winning listener's row
// against the transmit masks, clearing won lanes as their unique senders
// are found. RecoveryStrategy::kAuto fuses that re-walk into the gather
// traversal (the row is still in cache) and defers it to a pass over the
// delivered listeners on scatter rounds; kRowScan pins the deferred pass.
// Under kAuto a round whose transmitters all relay one value through a
// shared plane (a single-valued Decay relay) recovers no senders at all.
//
// The traversal itself is transmitter-centric scatter (sparse rounds,
// blocks in planes_) or listener-centric gather (dense rounds, blocks in
// registers, radio/simd.hpp's AVX2 row gather behind runtime dispatch).
// Gather rounds are the one place extra cores pay: with more than one
// worker the listener space is cut into degree-balanced slices run on a
// work-stealing pool (radio/steal_pool.hpp). Each slice fills its own
// output buffers and tallies, merged in slice order, so outcomes are
// byte-identical for any worker or slice count. The serial run is the
// same pass over one slice [0, n) writing straight into the outcome.
//
// Every round enters as an ActiveTx list and leaves as a max-fold into
// knowledge planes (resolve_lanes). The prologue walks the list itself and
// stages the transmit masks in lazily-cleared scratch, so a sparse-tail
// round costs O(active work) with no 0..n scan. resolve() is the same
// round with one lane: it folds a plane of sender ids, then reads each
// delivery's sender and payload off it in delivered order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "radio/lane_counter.hpp"
#include "radio/medium.hpp"

namespace radiocast::radio {

class StealPool;

class BitsliceMedium final : public Medium {
 public:
  /// `threads` is the gather-round worker count: 0 defers to the
  /// RADIOCAST_SHARD_THREADS environment variable when set, else 1 (serial,
  /// no pool threads). `slices` is the pooled gather's steal-granularity
  /// slice count; 0 means one slice per ~16k adjacency entries. Neither
  /// changes an outcome — only where the cost lands.
  BitsliceMedium(const graph::Graph& g, CollisionModel model, int threads = 0,
                 int slices = 0);
  ~BitsliceMedium() override;

  std::string_view name() const override { return "bitslice"; }
  int worker_count() const;
  /// Slices a gather round is cut into (1 when serial).
  int slice_count() const;

  /// Single-instance rounds: one resolve_lanes lane over a plane of
  /// sender ids, so the facade and the batch entry share one kernel.
  void resolve(std::span<const graph::NodeId> transmitters,
               std::span<const Payload> tx_payload,
               SparseOutcome& out) override;

  /// Every recovered (listener, lane, sender) max-combines the sender's
  /// payload straight into the best knowledge planes (any KnowledgePlanes
  /// layout; node-major keeps each listener's folded lane words in one
  /// cache-line run) — no per-delivery records at all.
  void resolve_lanes(std::span<const ActiveTx> tx, PayloadPlanes payload,
                     int lanes, KnowledgePlanes best,
                     BatchOutcome& out) override;

 private:
  /// How this round identifies senders:
  ///   kScanDeferred  — row scan over out.delivered after the traversal
  ///                    (kAuto's scatter choice; RecoveryStrategy::kRowScan
  ///                    pins it on every round)
  ///   kScanFused     — gather only: re-walk the row at emit time (kAuto's
  ///                    gather choice: the row and transmit masks were read
  ///                    one loop iteration ago)
  ///   kConstFold     — kAuto only, on a lane-invariant payload plane:
  ///                    the prologue proved every transmitter carries
  ///                    the same payload value, so the fold needs no
  ///                    sender identity at all: run_core recovers nothing
  ///                    and run_round folds that value over the delivered
  ///                    masks. Reached by fixed-value floods and by every
  ///                    single-valued core::compete_batched run (a
  ///                    broadcast, a binary-search LE phase), which relays
  ///                    one shared plane of the winner
  enum class Recover : std::uint8_t { kScanDeferred, kScanFused, kConstFold };

  /// Where one traversal's listener output lands: `out` itself and the
  /// medium's own tallies on serial passes, a slice's private buffers on
  /// pooled gather passes (summed and appended in slice order afterwards).
  struct Part {
    BatchOutcome* out = nullptr;
    LaneCounter delivered_tally;
    LaneCounter collided_tally;
    std::uint32_t active = 0;

    void reset(BatchOutcome* target) {
      out = target;
      delivered_tally.reset();
      collided_tally.reset();
      active = 0;
    }
  };

  /// A pooled gather's unit of work: the listener interval [lo, hi) plus
  /// its own output buffers. Cache-line aligned, so neighbouring slices'
  /// per-listener writes never share a line across workers.
  struct alignas(64) Slice {
    graph::NodeId lo = 0;
    graph::NodeId hi = 0;
    BatchOutcome buf;
    Part part;
  };

  /// One round over the transmitters in txlist_ (masks staged in
  /// active_mask_): prologue (tallies, traversal volume, const-plane
  /// check), recovery choice, run_core with the max-fold sink. `t0` is
  /// when the round's list walk began.
  void run_round(PayloadPlanes payload, int lanes, KnowledgePlanes best,
                 BatchOutcome& out, std::uint64_t t0);
  /// Traversal + output + recovery. Sinks take (listener, sender, lane
  /// mask) — one call per sender group, so sinks hoist per-sender work
  /// (the payload read, for lane-invariant planes) out of the per-lane
  /// loop.
  template <class Sink>
  void run_core(std::uint64_t lane_mask, int lanes, std::uint64_t work,
                BatchOutcome& out, Recover recover, Sink&& sink);
  /// Applies the RecoveryStrategy knob to this round's traversal shape.
  Recover choose_recovery(bool gather) const;

  /// Emits one listener's delivered/collision masks into `p`; returns the
  /// win mask. Every listener with a nonzero `one` word passes through
  /// here exactly once per round, so the call count IS the active set.
  std::uint64_t emit(Part& p, std::span<const std::uint64_t> tx_mask,
                     std::uint64_t lane_mask, graph::NodeId v,
                     std::uint64_t one, std::uint64_t two) const;
  /// Listener-centric gather over [lo, hi) into `p`; with kFused, winning
  /// listeners' senders are recovered before their row leaves cache.
  /// Reads only shared round state and writes only `p` and the sink's
  /// listener-owned targets, so disjoint intervals run concurrently.
  template <bool kFused, class Sink>
  void gather_range(graph::NodeId lo, graph::NodeId hi,
                    std::span<const std::uint64_t> tx_mask,
                    std::uint64_t lane_mask, Part& p, Sink& sink) const;
  template <bool kDense>
  void scatter_accumulate(std::span<const std::uint64_t> tx_mask,
                          std::uint64_t lane_mask);
  /// Deferred row scan: re-walk each winning listener's row, clearing won
  /// lanes as their unique senders are found.
  template <class Sink>
  void rowscan_recover(std::span<const std::uint64_t> tx_mask,
                       BatchOutcome& out, Sink&& sink) const;

  // Per-listener [one | two] bitplane blocks (2 * node_count words).
  // Invariant between rounds: all zero — a nonzero `one` marks the
  // listener as touched this round (transmit masks are never empty), so no
  // epoch stamps are needed; each round's output sweep re-zeroes exactly
  // what it dirtied.
  std::vector<std::uint64_t> planes_;
  std::vector<graph::NodeId> touched_;
  std::vector<graph::NodeId> txlist_;

  // Bit-sliced per-lane transmitter tally, and the serial passes' output
  // target (see Part).
  LaneCounter tx_tally_;
  Part main_;

  // Gather-round pool: null when serial. Slices are a pure function of the
  // graph and the slice knob; they exist only alongside a pool.
  std::unique_ptr<StealPool> pool_;
  std::vector<Slice> slices_;

  // The round's transmit masks, staged from its list (node_count words):
  // all zero between rounds; resolve_lanes fills it and re-zeroes exactly
  // the txlist_ entries.
  std::vector<std::uint64_t> active_mask_;

  // Scratch for the single-instance resolve() facade: its one-lane list, a
  // per-node payload plane (only this round's transmitters' entries are
  // ever read, so stale entries need no clearing), the sender-id plane
  // (ids_[v] == v) it folds, and the one-lane fold target (all kNoPayload
  // between calls; each round resets the entries it delivered to).
  std::vector<ActiveTx> active1_;
  std::vector<Payload> payload1_;
  std::vector<Payload> ids_;
  std::vector<Payload> sender_of_;
  BatchOutcome batch_out_;
};

}  // namespace radiocast::radio
