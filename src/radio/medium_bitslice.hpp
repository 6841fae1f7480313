// Bit-sliced batch backend: resolves one round for up to 64 independent
// Monte-Carlo lanes with one CSR traversal.
//
// Per listener it maintains a contiguous block of bitplane words,
//
//   [ one | two | id_0 .. id_{idbits-1} ]
//
// where `one`/`two` are the ">= 1 tx" / ">= 2 tx" saturation planes
// updated with a bitwise saturating add (two |= one & m; one |= m) and the
// optional id words implement in-kernel sender identification: word id_b's
// lane-l bit is the XOR of bit b of every id transmitted into the listener
// on lane l. On any lane the listener *wins* (exactly one transmitter) the
// XOR IS the unique sender's id, so recovery reads senders straight out of
// the planes in O(idbits = ceil(log2 n)) per delivery instead of
// re-scanning the listener's adjacency row — the bookkeeping rides the
// batched communication pass instead of a second sweep. RecoveryStrategy
// (kRowScan / kIdPlanes / kAuto cost prediction) picks the path per round;
// both produce identical outcomes.
//
// The traversal itself is transmitter-centric scatter (sparse rounds,
// blocks in planes_) or listener-centric gather (dense rounds, blocks in
// registers, id words stored only for winning listeners); the per-edge id
// update and the per-delivery id extraction run through the AVX2 kernels
// in radio/simd.hpp behind runtime dispatch, with scalar fallbacks.
//
// A round enters either as an n-word transmit mask (resolve_batch*) or as
// a sparse ActiveTx list (resolve_batch*_active, and resolve() with one
// lane). The list form builds the prologue from the list itself and
// stages the mask in lazily-cleared scratch, so a sparse-tail round costs
// O(active work) with no 0..n scan; from there both forms run one kernel.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "radio/lane_counter.hpp"
#include "radio/medium.hpp"

namespace radiocast::radio {

class BitsliceMedium final : public Medium {
 public:
  BitsliceMedium(const graph::Graph& g, CollisionModel model);

  std::string_view name() const override { return "bitslice"; }

  /// Single-instance rounds run through the sparse-list path with one
  /// lane, so the facade and the batch entry points share one kernel.
  void resolve(std::span<const graph::NodeId> transmitters,
               std::span<const Payload> tx_payload,
               SparseOutcome& out) override;

  void resolve_batch(std::span<const std::uint64_t> tx_mask,
                     PayloadPlanes payload, int lanes, BatchOutcome& out,
                     bool with_senders = true) override;

  /// Fold path: every recovered (listener, lane, sender) max-combines the
  /// sender's payload straight into the best knowledge planes (any
  /// KnowledgePlanes layout; node-major keeps each listener's folded lane
  /// words in one cache-line run) — no per-delivery records at all.
  void resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                         PayloadPlanes payload, int lanes,
                         KnowledgePlanes best, BatchOutcome& out) override;

  /// Sparse-list entry points: the prologue is built from the list (no
  /// 0..n mask scan), so a round costs O(active work); the traversal,
  /// recovery and const-fold are the dense entry points' own. These rounds
  /// report their traversal in enqueue_ns and output scan in drain_ns.
  void resolve_batch_active(std::span<const ActiveTx> tx,
                            PayloadPlanes payload, int lanes, BatchOutcome& out,
                            bool with_senders = true) override;
  void resolve_batch_max_active(std::span<const ActiveTx> tx,
                                PayloadPlanes payload, int lanes,
                                KnowledgePlanes best,
                                BatchOutcome& out) override;

  /// Sender-id plane words per listener: ceil(log2 n), at least 1.
  std::uint32_t id_bits() const { return idbits_; }

 private:
  /// What run_batch does with each recovered delivery.
  enum class FoldMode : std::uint8_t { kMasksOnly, kSenders, kMaxFold };

  /// How this round identifies senders. The deferred paths run as a
  /// separate (timed) recovery pass; the fused paths recover inside the
  /// gather traversal while the listener's row / id accumulators are still
  /// hot in cache and registers:
  ///   kNone          — mask-only round, nothing to recover
  ///   kScanDeferred  — row scan over out.delivered (the PR 3 path;
  ///                    RecoveryStrategy::kRowScan pins it for comparison)
  ///   kScanFused     — gather only: re-walk the row at emit time (kAuto's
  ///                    gather choice: the row and transmit masks were read
  ///                    one loop iteration ago)
  ///   kIdsDeferred   — scatter id planes, extraction pass over delivered
  ///   kIdsFused      — gather id planes in registers, extraction at emit
  ///   kConstFold     — max-fold only: the prologue proved every
  ///                    transmitter carries the same payload value, so the
  ///                    fold needs no sender identity at all (run_batch
  ///                    handles it; run_core never sees this value)
  enum class Recover : std::uint8_t {
    kNone,
    kScanDeferred,
    kScanFused,
    kIdsDeferred,
    kIdsFused,
    kConstFold
  };

  /// Throws unless the payload view, lane count and (for a max-fold) the
  /// knowledge planes fit this graph.
  void validate(PayloadPlanes payload, int lanes, FoldMode mode,
                KnowledgePlanes best) const;
  /// Dense entry: collects txlist_ by scanning tx_mask, then run_round.
  void run_batch(std::span<const std::uint64_t> tx_mask, PayloadPlanes payload,
                 int lanes, BatchOutcome& out, FoldMode mode,
                 KnowledgePlanes best);
  /// Sparse entry: ORs each entry's live lanes into active_mask_ and
  /// collects txlist_ (unique nodes, first-appearance order), runs
  /// run_round over that mask, and re-zeroes it — also when an
  /// out-of-range entry or the round throws.
  void run_active(std::span<const ActiveTx> tx, PayloadPlanes payload,
                  int lanes, BatchOutcome& out, FoldMode mode,
                  KnowledgePlanes best);
  /// One round over the transmitters in txlist_: prologue (tallies,
  /// traversal volume, const-plane check), recovery choice, run_core with
  /// the mode's sink. `t0` is when the round's transmitter collection
  /// began; `from_list` routes the phase time to enqueue_ns/drain_ns.
  void run_round(std::span<const std::uint64_t> tx_mask, PayloadPlanes payload,
                 int lanes, BatchOutcome& out, FoldMode mode,
                 KnowledgePlanes best, bool from_list, std::uint64_t t0);
  template <class Sink>
  void run_core(std::span<const std::uint64_t> tx_mask, std::uint64_t lane_mask,
                int lanes, std::uint64_t work, BatchOutcome& out,
                Recover recover, bool from_list, Sink&& sink);
  /// Applies the RecoveryStrategy knob to this round's traversal shape;
  /// kAuto fuses a row re-walk into gather rounds and, for scatter rounds,
  /// predicts id planes vs the deferred scan from the traversal volume and
  /// the last sender-recovering round's delivered-row volume.
  Recover choose_recovery(std::uint64_t work, bool gather) const;
  /// Widens the per-listener block stride from 2 to 2 + idbits_. Planes
  /// are all-zero between rounds, so the relayout is just a bigger zeroed
  /// allocation.
  void ensure_id_capacity();

  template <bool kWithIds, bool kDense>
  void scatter_accumulate(std::span<const std::uint64_t> tx_mask,
                          std::uint64_t lane_mask);
  /// Row-scan recovery (the pre-id-planes path): re-walk each winning
  /// listener's row, clearing won lanes as their unique senders are found.
  /// Sink: (listener, sender, lane mask) — one call per sender group, so
  /// sinks hoist per-sender work (the payload read, for lane-invariant
  /// planes) out of the per-lane loop.
  template <class Sink>
  void rowscan_recover(std::span<const std::uint64_t> tx_mask,
                       const BatchOutcome& out, Sink&& sink) const;
  /// Id-plane recovery: read each won lane's sender id back out of the
  /// listener's XOR planes and re-zero them (the between-round invariant).
  template <class Sink>
  void idplane_recover(const BatchOutcome& out, Sink&& sink);
  /// Extraction core shared by the deferred and fused id paths: calls
  /// sink(v, sender, single-lane mask) for every lane in `win`, reading
  /// senders out of the id words (per-lane bit gather, or one 64x64
  /// transpose for win-dense listeners).
  template <class Sink>
  void extract_ids(graph::NodeId v, std::uint64_t win, const std::uint64_t* id,
                   Sink&& sink) const;

  // ceil(log2 n) — how many id planes a sender id needs. NodeId is 32-bit,
  // so blocks never exceed 2 + 32 words.
  std::uint32_t idbits_;
  // Words per listener block: 2 until the first id-plane round, then
  // 2 + idbits_ for the lifetime of the medium.
  std::size_t stride_ = 2;
  // Per-listener bitplane blocks (node_count * stride_ words). Invariant
  // between rounds: all zero — a nonzero `one` marks the listener as
  // touched this round (transmit masks are never empty), so no epoch
  // stamps are needed; each round's epilogue re-zeroes exactly what it
  // dirtied (id words of winning listeners are re-zeroed by the recovery
  // pass that consumes them).
  std::vector<std::uint64_t> planes_;
  std::vector<graph::NodeId> touched_;
  std::vector<graph::NodeId> txlist_;
  // kAuto's estimate of the row-scan volume: sum of delivered listeners'
  // degrees in the last sender-recovering round (round densities drift
  // slowly, so the previous round is a good predictor of this one).
  std::uint64_t scan_cost_estimate_;

  // Bit-sliced per-lane tallies (see radio/lane_counter.hpp).
  LaneCounter tx_tally_;
  LaneCounter delivered_tally_;
  LaneCounter collided_tally_;

  // Sparse-list transmit mask (node_count words): all zero between
  // rounds; run_active fills it from the list and re-zeroes txlist_.
  std::vector<std::uint64_t> active_mask_;

  // Scratch for the single-instance resolve() facade: its one-lane list
  // and a per-node payload plane (only this round's transmitters' entries
  // are ever read, so stale entries need no clearing).
  std::vector<ActiveTx> active1_;
  std::vector<Payload> payload1_;
  BatchOutcome batch_out_;
};

}  // namespace radiocast::radio
