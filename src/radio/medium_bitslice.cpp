#include "radio/medium_bitslice.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/simd.hpp"

namespace radiocast::radio {

namespace {

// kAuto's scatter cost model: accumulating id planes costs ~idbits
// streaming word-XORs per traversed edge (the per-transmitter spread is
// hoisted out of the row loop, so the compiler vectorizes the rest), while
// the deferred row scan costs ~1 random adjacency + transmit-mask read per
// entry of every delivered listener's row. The factor calibrates that
// exchange rate (random reads are worth a few streaming XORs each).
constexpr std::uint64_t kRowScanCostFactor = 4;

// Id extraction switches from per-lane bit gathering (O(idbits) per won
// lane) to one 64x64 transpose per listener (fixed ~400 word-ops serving
// all 64 lanes at once) when a listener won at least this many lanes.
constexpr int kTransposeLanes = 12;

}  // namespace

BitsliceMedium::BitsliceMedium(const graph::Graph& g, CollisionModel model)
    : Medium(g, model) {
  const auto n = g.node_count();
  idbits_ = n > 1 ? static_cast<std::uint32_t>(std::bit_width(
                        static_cast<std::uint32_t>(n - 1)))
                  : 1u;
  planes_.assign(static_cast<std::size_t>(n) * stride_, 0);
  touched_.reserve(n);
  active_mask_.assign(n, 0);
  payload1_.assign(n, kNoPayload);
  // Seed the row-scan estimate with the full adjacency: the first batches
  // of a protocol are typically dense enough that a row scan would walk
  // most rows, and the estimate self-corrects from round one onward.
  scan_cost_estimate_ = 2 * g.edge_count();
}

BitsliceMedium::Recover BitsliceMedium::choose_recovery(std::uint64_t work,
                                                        bool gather) const {
  switch (recovery_) {
    case RecoveryStrategy::kRowScan:
      return Recover::kScanDeferred;
    case RecoveryStrategy::kIdPlanes:
      return gather ? Recover::kIdsFused : Recover::kIdsDeferred;
    case RecoveryStrategy::kAuto:
      break;
  }
  if (gather) {
    // The fused re-walk touches only winning listeners' rows, against
    // transmit-mask words read one loop iteration earlier — it is never
    // beaten by accumulating id planes on every traversed edge.
    return Recover::kScanFused;
  }
  const std::uint64_t id_cost = work * (idbits_ / 4 + 1);
  return id_cost <= kRowScanCostFactor * scan_cost_estimate_
             ? Recover::kIdsDeferred
             : Recover::kScanDeferred;
}

void BitsliceMedium::ensure_id_capacity() {
  const std::size_t full = 2 + idbits_;
  if (stride_ == full) return;
  stride_ = full;
  planes_.assign(static_cast<std::size_t>(graph_->node_count()) * stride_, 0);
}

template <bool kWithIds, bool kDense>
void BitsliceMedium::scatter_accumulate(
    std::span<const std::uint64_t> tx_mask, std::uint64_t lane_mask) {
  std::uint64_t* const base = planes_.data();
  const std::size_t stride = stride_;
  const std::uint32_t idbits = idbits_;
  for (const graph::NodeId u : txlist_) {
    const std::uint64_t m = tx_mask[u] & lane_mask;
    // The id spread is loop-invariant across u's whole row: word b is m
    // where bit b of u is set, 0 otherwise. Hoisting it turns the
    // per-edge id update into a streaming XOR the compiler vectorizes.
    std::uint64_t spread[34];
    if constexpr (kWithIds) {
      for (std::uint32_t b = 0; b < idbits; ++b) {
        spread[b] = (-(static_cast<std::uint64_t>(u) >> b & 1)) & m;
      }
    }
    for (const graph::NodeId v : graph_->neighbors(u)) {
      std::uint64_t* const blk = base + static_cast<std::size_t>(v) * stride;
      if constexpr (!kDense) {
        if (blk[0] == 0) touched_.push_back(v);
      }
      blk[1] |= blk[0] & m;
      blk[0] |= m;
      if constexpr (kWithIds) {
        for (std::uint32_t b = 0; b < idbits; ++b) blk[2 + b] ^= spread[b];
      }
    }
  }
}

template <class Sink>
void BitsliceMedium::rowscan_recover(std::span<const std::uint64_t> tx_mask,
                                     const BatchOutcome& out,
                                     Sink&& sink) const {
  // Scan each winning listener's row, clearing won lanes as their unique
  // senders are found, so every row is visited at most once and only for
  // listeners that actually won a lane.
  for (const auto& dm : out.delivered) {
    std::uint64_t win = dm.lanes;
    for (const graph::NodeId u : graph_->neighbors(dm.node)) {
      const std::uint64_t hit = win & tx_mask[u];
      if (hit == 0) continue;
      win &= ~hit;
      sink(dm.node, u, hit);
      if (win == 0) break;
    }
  }
}

template <class Sink>
void BitsliceMedium::extract_ids(graph::NodeId v, std::uint64_t win,
                                 const std::uint64_t* id, Sink&& sink) const {
  const std::uint64_t idmask =
      idbits_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << idbits_) - 1;
  if (std::popcount(win) >= kTransposeLanes) {
    // Win-dense listener: one transpose yields every lane's sender id.
    // Store plane b into row 63-b and read lane l from row 63-l — the
    // anti-diagonal kernel then lands bit b of lane l's id at bit b.
    std::array<std::uint64_t, 64> w{};
    for (std::uint32_t b = 0; b < idbits_; ++b) w[63 - b] = id[b];
    simd::transpose64(w);
    do {
      const int lane = std::countr_zero(win);
      sink(v,
           static_cast<graph::NodeId>(
               w[static_cast<std::size_t>(63 - lane)] & idmask),
           std::uint64_t{1} << lane);
      win &= win - 1;
    } while (win != 0);
  } else {
    do {
      const int lane = std::countr_zero(win);
      sink(v,
           static_cast<graph::NodeId>(simd::extract_id(id, idbits_, lane)),
           std::uint64_t{1} << lane);
      win &= win - 1;
    } while (win != 0);
  }
}

template <class Sink>
void BitsliceMedium::idplane_recover(const BatchOutcome& out, Sink&& sink) {
  for (const auto& dm : out.delivered) {
    std::uint64_t* const id =
        planes_.data() + static_cast<std::size_t>(dm.node) * stride_ + 2;
    extract_ids(dm.node, dm.lanes, id, sink);
    // Consume-and-clear restores the between-round all-zero invariant for
    // the id words the output sweep left live for us.
    std::fill_n(id, idbits_, 0);
  }
}

template <class Sink>
void BitsliceMedium::run_core(std::span<const std::uint64_t> tx_mask,
                              std::uint64_t lane_mask, int lanes,
                              std::uint64_t work, BatchOutcome& out,
                              Recover recover, bool from_list, Sink&& sink) {
  const graph::NodeId n = graph_->node_count();
  std::uint64_t& traverse_ns =
      from_list ? timers_.enqueue_ns : timers_.traverse_ns;
  std::uint64_t& output_ns = from_list ? timers_.drain_ns : timers_.output_ns;
  const obs::TraceSpan trace_span("bitslice.round", "lanes",
                                  static_cast<std::uint64_t>(lanes), "work",
                                  work);
  const std::uint64_t t0 = now_ns();
  const bool dense = 2 * work >= n;
  // When transmitters cover at least half of all adjacency, flip the
  // traversal to a listener-centric gather: the planes accumulate in
  // registers, and the fused recovery paths identify senders before the
  // listener's row leaves cache.
  const bool gather = work >= graph_->edge_count();
  const bool use_ids =
      recover == Recover::kIdsDeferred || recover == Recover::kIdsFused;
  // Only the deferred path parks id words in planes_; the fused gather
  // path keeps them in registers, so it must not pay the widened stride.
  if (recover == Recover::kIdsDeferred) ensure_id_capacity();

  // Emits one listener's delivered/collision masks; returns the win mask.
  // Every listener with a nonzero `one` word passes through here exactly
  // once on each traversal shape, so the call count IS the active set.
  std::uint32_t active = 0;
  auto emit = [&](const graph::NodeId v, const std::uint64_t one,
                  const std::uint64_t two) -> std::uint64_t {
    ++active;
    const std::uint64_t not_tx = ~tx_mask[v];
    const std::uint64_t win = one & ~two & not_tx;
    const std::uint64_t coll = two & not_tx & lane_mask;
    if (win != 0) {
      out.delivered.push_back({v, win});
      delivered_tally_.add(win);
    }
    if (coll != 0) {
      if (model_ == CollisionModel::kDetection) {
        out.collisions.push_back({v, coll});
      }
      collided_tally_.add(coll);
    }
    return win;
  };

  if (gather) {
    // Gather fuses the output scan — and, on the fused recovery paths,
    // sender recovery itself — into the traversal; those phases report 0
    // and their cost counts toward traverse_ns.
    auto gather_pass = [&]<Recover kRecover>() {
      [[maybe_unused]] std::array<std::uint64_t, 34> idacc;
      for (graph::NodeId v = 0; v < n; ++v) {
        std::uint64_t one = 0;
        std::uint64_t two = 0;
        if constexpr (kRecover == Recover::kIdsFused) {
          std::fill_n(idacc.data(), idbits_, 0);
          for (const graph::NodeId u : graph_->neighbors(v)) {
            const std::uint64_t m = tx_mask[u] & lane_mask;
            if (m == 0) continue;
            two |= one & m;
            one |= m;
            simd::xor_id_accumulate(idacc.data(), u, m, idbits_);
          }
        } else {
          const auto row = graph_->neighbors(v);
          simd::gather_row(row.data(), row.size(), tx_mask.data(), lane_mask,
                           one, two);
        }
        if (one == 0) continue;
        const std::uint64_t win = emit(v, one, two);
        if (win == 0) continue;
        if constexpr (kRecover == Recover::kIdsFused) {
          // Extraction straight from the register accumulators — the id
          // words never touch the planes array on this path.
          extract_ids(v, win, idacc.data(), sink);
        } else if constexpr (kRecover == Recover::kScanFused) {
          // Hot re-walk: the row and its transmit-mask words were read
          // one loop iteration ago, so this is L1 traffic, and it only
          // happens for winning listeners.
          std::uint64_t left = win;
          for (const graph::NodeId u : graph_->neighbors(v)) {
            const std::uint64_t hit = left & tx_mask[u];
            if (hit == 0) continue;
            left &= ~hit;
            sink(v, u, hit);
            if (left == 0) break;
          }
        }
      }
    };
    switch (recover) {
      case Recover::kIdsFused:
        gather_pass.template operator()<Recover::kIdsFused>();
        break;
      case Recover::kScanFused:
        gather_pass.template operator()<Recover::kScanFused>();
        break;
      default:
        gather_pass.template operator()<Recover::kNone>();
        break;
    }
    traverse_ns += now_ns() - t0;
  } else {
    // Scatter: bitwise saturating add into the per-listener blocks. Planes
    // are all-zero between rounds, so "one == 0" doubles as the untouched
    // test; the dense path drops even that branch — its output scan walks
    // every listener anyway. Fused recovery does not apply here (plane
    // state only settles once every transmitter's row has been applied).
    if (dense) {
      if (use_ids) {
        scatter_accumulate<true, true>(tx_mask, lane_mask);
      } else {
        scatter_accumulate<false, true>(tx_mask, lane_mask);
      }
    } else {
      touched_.clear();
      if (use_ids) {
        scatter_accumulate<true, false>(tx_mask, lane_mask);
      } else {
        scatter_accumulate<false, false>(tx_mask, lane_mask);
      }
    }
    const std::uint64_t t1 = now_ns();
    traverse_ns += t1 - t0;

    // Output scan: a lane delivers iff exactly one neighbour transmitted
    // and the listener was silent — pure bitplane arithmetic. Re-zeroing
    // (the next round's invariant) is fused into the same sweep; winning
    // listeners' id words are left live for the recovery pass, which
    // consumes and clears them.
    auto output_block = [&](const graph::NodeId v) {
      std::uint64_t* const blk =
          planes_.data() + static_cast<std::size_t>(v) * stride_;
      const std::uint64_t win = emit(v, blk[0], blk[1]);
      blk[0] = 0;
      blk[1] = 0;
      if (use_ids && win == 0) std::fill_n(blk + 2, idbits_, 0);
    };
    if (dense) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (planes_[static_cast<std::size_t>(v) * stride_] != 0) {
          output_block(v);
        }
      }
    } else {
      for (const graph::NodeId v : touched_) output_block(v);
    }
    output_ns += now_ns() - t1;
  }

  out.active_listeners = active;
  timers_.active_listeners += active;
  delivered_tally_.extract(out.delivered_count, lanes);
  collided_tally_.extract(out.collided_count, lanes);
  const std::uint64_t t2 = now_ns();

  // Deferred recovery passes (the fused ones already ran inside gather).
  if (recover == Recover::kIdsDeferred) {
    idplane_recover(out, sink);
  } else if (recover == Recover::kScanDeferred) {
    rowscan_recover(tx_mask, out, sink);
  }

  if (recover != Recover::kNone) {
    if (use_ids) {
      ++timers_.idplane_rounds;
    } else {
      ++timers_.rowscan_rounds;
    }
    if (recovery_ == RecoveryStrategy::kAuto) {
      // Feed kAuto's scatter predictor with what a row scan of this
      // round's delivered listeners would have walked.
      std::uint64_t scan = 0;
      for (const auto& dm : out.delivered) scan += graph_->degree(dm.node);
      scan_cost_estimate_ = scan;
    }
    timers_.recover_ns += now_ns() - t2;
  }
  static obs::Histogram& round_hist =
      obs::Metrics::global().histogram("radio.bitslice.round_ns");
  round_hist.record(now_ns() - t0);
  ++timers_.rounds;
}

void BitsliceMedium::validate(PayloadPlanes payload, int lanes, FoldMode mode,
                              KnowledgePlanes best) const {
  const graph::NodeId n = graph_->node_count();
  if (payload.plane_size() != n) {
    throw std::invalid_argument("BitsliceMedium: size mismatch");
  }
  if (lanes < 1 || lanes > kMaxLanes || lanes > payload.lane_capacity()) {
    throw std::invalid_argument("BitsliceMedium: lanes out of range");
  }
  if (mode == FoldMode::kMaxFold &&
      (best.plane_size() < n || lanes > best.lane_capacity())) {
    throw std::invalid_argument("BitsliceMedium: best too small");
  }
}

void BitsliceMedium::run_batch(std::span<const std::uint64_t> tx_mask,
                               PayloadPlanes payload, int lanes,
                               BatchOutcome& out, FoldMode mode,
                               KnowledgePlanes best) {
  const graph::NodeId n = graph_->node_count();
  if (tx_mask.size() != n) {
    throw std::invalid_argument("BitsliceMedium: size mismatch");
  }
  validate(payload, lanes, mode, best);
  const std::uint64_t lane_mask = radio::lane_mask(lanes);
  const std::uint64_t t0 = now_ns();
  txlist_.clear();
  for (graph::NodeId u = 0; u < n; ++u) {
    if ((tx_mask[u] & lane_mask) != 0) txlist_.push_back(u);
  }
  run_round(tx_mask, payload, lanes, out, mode, best, /*from_list=*/false, t0);
}

void BitsliceMedium::run_active(std::span<const ActiveTx> tx,
                                PayloadPlanes payload, int lanes,
                                BatchOutcome& out, FoldMode mode,
                                KnowledgePlanes best) {
  validate(payload, lanes, mode, best);
  const graph::NodeId n = graph_->node_count();
  const std::uint64_t lane_mask = radio::lane_mask(lanes);
  const std::uint64_t t0 = now_ns();
  // Stage the list into active_mask_ (all zero between rounds), collecting
  // unique transmitters in first-appearance order; only txlist_ nodes are
  // ever dirty, so un-staging is O(list) too.
  auto unstage = [&] {
    for (const graph::NodeId u : txlist_) active_mask_[u] = 0;
  };
  txlist_.clear();
  for (const ActiveTx& e : tx) {
    if (e.node >= n) {
      unstage();
      throw std::invalid_argument("BitsliceMedium: transmitter out of range");
    }
    const std::uint64_t m = e.lanes & lane_mask;
    if (m == 0) continue;
    std::uint64_t& word = active_mask_[e.node];
    if (word == 0) txlist_.push_back(e.node);
    word |= m;
  }
  try {
    run_round(active_mask_, payload, lanes, out, mode, best,
              /*from_list=*/true, t0);
  } catch (...) {
    unstage();
    throw;
  }
  unstage();
}

void BitsliceMedium::run_round(std::span<const std::uint64_t> tx_mask,
                               PayloadPlanes payload, int lanes,
                               BatchOutcome& out, FoldMode mode,
                               KnowledgePlanes best, bool from_list,
                               std::uint64_t t0) {
  const std::uint64_t lane_mask = radio::lane_mask(lanes);
  out.clear();
  tx_tally_.reset();
  delivered_tally_.reset();
  collided_tally_.reset();

  // Prologue over the collected transmitters: per-lane tallies and the
  // traversal-volume estimate that picks the scatter/gather shape and the
  // recovery path. For a lane-invariant max-fold it also checks whether
  // every transmitter carries one payload value — a fixed-value relay
  // (flood) folds with no sender identification at all.
  std::uint64_t work = 0;
  bool const_plane = mode == FoldMode::kMaxFold && payload.lane_invariant() &&
                     recovery_ == RecoveryStrategy::kAuto;
  Payload const_value = kNoPayload;
  bool const_seen = false;
  for (const graph::NodeId u : txlist_) {
    tx_tally_.add(tx_mask[u] & lane_mask);
    work += graph_->degree(u);
    if (const_plane) {
      const Payload p = payload.at(0, u);
      if (!const_seen) {
        const_value = p;
        const_seen = true;
      } else if (p != const_value) {
        const_plane = false;
      }
    }
  }
  tx_tally_.extract(out.transmitter_count, lanes);
  (from_list ? timers_.enqueue_ns : timers_.traverse_ns) += now_ns() - t0;

  const bool gather = work >= graph_->edge_count();
  const Recover recover = mode == FoldMode::kMasksOnly ? Recover::kNone
                          : const_plane              ? Recover::kConstFold
                                                     : choose_recovery(
                                                           work, gather);

  if (recover == Recover::kConstFold) {
    run_core(tx_mask, lane_mask, lanes, work, out, Recover::kNone, from_list,
             [](graph::NodeId, graph::NodeId, std::uint64_t) {});
    const std::uint64_t tr = now_ns();
    const std::size_t bls = best.lane_stride();
    std::uint64_t scan = 0;
    for (const auto& dm : out.delivered) {
      Payload* const brow = best.row(dm.node);
      std::uint64_t hit = dm.lanes;
      do {
        const int lane = std::countr_zero(hit);
        Payload& b = brow[static_cast<std::size_t>(lane) * bls];
        if (b == kNoPayload || const_value > b) b = const_value;
        hit &= hit - 1;
      } while (hit != 0);
      scan += graph_->degree(dm.node);
    }
    scan_cost_estimate_ = scan;
    ++timers_.constfold_rounds;
    timers_.recover_ns += now_ns() - tr;
    return;
  }

  // Sinks take one (listener, sender, lane mask) group per call; for
  // lane-invariant payload planes the sender's payload is read once per
  // group instead of once per delivered lane.
  const bool invariant = payload.lane_invariant();
  if (mode == FoldMode::kSenders) {
    run_core(tx_mask, lane_mask, lanes, work, out, recover, from_list,
             [&](const graph::NodeId v, const graph::NodeId u,
                 std::uint64_t hit) {
               if (invariant) {
                 const Payload p = payload.at(0, u);
                 do {
                   const int lane = std::countr_zero(hit);
                   out.deliveries.push_back(
                       {v, static_cast<std::uint8_t>(lane), u, p});
                   hit &= hit - 1;
                 } while (hit != 0);
               } else {
                 do {
                   const int lane = std::countr_zero(hit);
                   out.deliveries.push_back({v,
                                             static_cast<std::uint8_t>(lane),
                                             u, payload.at(lane, u)});
                   hit &= hit - 1;
                 } while (hit != 0);
               }
             });
  } else if (mode == FoldMode::kMaxFold) {
    const std::size_t bls = best.lane_stride();
    const std::size_t pls = payload.lane_stride();
    run_core(tx_mask, lane_mask, lanes, work, out, recover, from_list,
             [&](const graph::NodeId v, const graph::NodeId u,
                 std::uint64_t hit) {
               Payload* const brow = best.row(v);
               if (invariant) {
                 const Payload p = payload.at(0, u);
                 do {
                   const int lane = std::countr_zero(hit);
                   Payload& b = brow[static_cast<std::size_t>(lane) * bls];
                   if (b == kNoPayload || p > b) b = p;
                   hit &= hit - 1;
                 } while (hit != 0);
               } else {
                 const Payload* const prow = payload.row(u);
                 do {
                   const int lane = std::countr_zero(hit);
                   Payload& b = brow[static_cast<std::size_t>(lane) * bls];
                   const Payload p = prow[static_cast<std::size_t>(lane) * pls];
                   if (b == kNoPayload || p > b) b = p;
                   hit &= hit - 1;
                 } while (hit != 0);
               }
             });
  } else {
    run_core(tx_mask, lane_mask, lanes, work, out, recover, from_list,
             [](graph::NodeId, graph::NodeId, std::uint64_t) {});
  }
}

void BitsliceMedium::resolve_batch(std::span<const std::uint64_t> tx_mask,
                                   PayloadPlanes payload, int lanes,
                                   BatchOutcome& out, bool with_senders) {
  run_batch(tx_mask, payload, lanes, out,
            with_senders ? FoldMode::kSenders : FoldMode::kMasksOnly,
            KnowledgePlanes(std::span<Payload>{}));
}

void BitsliceMedium::resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                                       PayloadPlanes payload, int lanes,
                                       KnowledgePlanes best,
                                       BatchOutcome& out) {
  run_batch(tx_mask, payload, lanes, out, FoldMode::kMaxFold, best);
}

void BitsliceMedium::resolve_batch_active(std::span<const ActiveTx> tx,
                                          PayloadPlanes payload, int lanes,
                                          BatchOutcome& out,
                                          bool with_senders) {
  run_active(tx, payload, lanes, out,
             with_senders ? FoldMode::kSenders : FoldMode::kMasksOnly,
             KnowledgePlanes(std::span<Payload>{}));
}

void BitsliceMedium::resolve_batch_max_active(std::span<const ActiveTx> tx,
                                              PayloadPlanes payload, int lanes,
                                              KnowledgePlanes best,
                                              BatchOutcome& out) {
  run_active(tx, payload, lanes, out, FoldMode::kMaxFold, best);
}

void BitsliceMedium::resolve(std::span<const graph::NodeId> transmitters,
                             std::span<const Payload> tx_payload,
                             SparseOutcome& out) {
  if (transmitters.size() != tx_payload.size()) {
    throw std::invalid_argument("BitsliceMedium::resolve: size mismatch");
  }
  const graph::NodeId n = graph_->node_count();
  // Back to front, so a duplicate's first payload is the one kept.
  active1_.resize(transmitters.size());
  for (std::size_t i = transmitters.size(); i-- > 0;) {
    const graph::NodeId u = transmitters[i];
    if (u >= n) {
      throw std::invalid_argument(
          "BitsliceMedium::resolve: transmitter out of range");
    }
    payload1_[u] = tx_payload[i];
    active1_[i] = {u, 1};
  }
  run_active(active1_, std::span<const Payload>(payload1_), 1, batch_out_,
             FoldMode::kSenders, KnowledgePlanes(std::span<Payload>{}));

  out.deliveries.clear();
  out.collided_nodes.clear();
  out.transmitter_count = batch_out_.transmitter_count[0];
  out.collided_count = batch_out_.collided_count[0];
  out.active_listeners = batch_out_.active_listeners;
  for (const auto& d : batch_out_.deliveries) {
    out.deliveries.push_back({d.node, d.from, d.payload});
  }
  for (const auto& c : batch_out_.collisions) {
    out.collided_nodes.push_back(c.node);
  }
}

}  // namespace radiocast::radio
