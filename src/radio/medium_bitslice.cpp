#include "radio/medium_bitslice.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/simd.hpp"
#include "radio/slice_pool.hpp"
#include "util/parse.hpp"

namespace radiocast::radio {

namespace {

// Worker count when the caller passes threads == 0: the
// RADIOCAST_SHARD_THREADS environment variable when set, else 1, so the
// default medium never starts pool threads. A set-but-invalid value
// (non-numeric, zero, negative) throws instead of silently falling back —
// a typo'd override must never quietly change the worker count.
int default_threads() {
  if (const char* env = std::getenv("RADIOCAST_SHARD_THREADS")) {
    const int v = util::parse_positive_int(env, "RADIOCAST_SHARD_THREADS");
    return std::min(v, 64);
  }
  return 1;
}

// ~16k adjacency entries per slice keeps a slice several L2-resident row
// walks big (claim overhead amortized) while giving every realistic worker
// count plenty of slices to balance over. Deliberately a function of the
// GRAPH only, never of the worker count.
constexpr std::uint64_t kAdjPerSlice = 16384;
constexpr int kMaxSlices = 4096;

}  // namespace

BitsliceMedium::BitsliceMedium(const graph::Graph& g, CollisionModel model,
                               int threads, int slices)
    : Medium(g, model) {
  const graph::NodeId n = g.node_count();
  planes_.assign(2 * static_cast<std::size_t>(n), 0);
  touched_.reserve(n);
  active_mask_.assign(n, 0);
  payload1_.assign(n, kNoPayload);
  ids_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) ids_[v] = v;
  sender_of_.assign(n, kNoPayload);

  int workers = threads == 0 ? default_threads() : std::max(1, threads);
  workers = std::min<int>(workers, std::max<graph::NodeId>(1, n));
  if (workers == 1) return;
  pool_ = std::make_unique<SlicePool>(workers);

  // Cut the listener space so every slice owns ~the same adjacency volume
  // (degree_prefix is the CSR offset array: offsets[v] = sum of degrees of
  // nodes < v). The cuts depend only on the graph and the slice count.
  const auto prefix = g.degree_prefix();
  const std::uint64_t total = prefix[n];
  int want = slices == 0 ? static_cast<int>(std::clamp<std::uint64_t>(
                               total / kAdjPerSlice, 1, 512))
                         : std::max(1, slices);
  want = std::min(want, kMaxSlices);
  want = std::min<int>(want, static_cast<int>(n));
  slices_.resize(static_cast<std::size_t>(want));
  graph::NodeId cut = 0;
  for (int s = 0; s < want; ++s) {
    Slice& slice = slices_[static_cast<std::size_t>(s)];
    slice.lo = cut;
    if (s + 1 == want) {
      cut = n;
    } else {
      const std::uint64_t target = total * static_cast<std::uint64_t>(s + 1) /
                                   static_cast<std::uint64_t>(want);
      const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
      cut = std::max(cut, static_cast<graph::NodeId>(std::min<std::ptrdiff_t>(
                              it - prefix.begin(), n)));
    }
    slice.hi = cut;
  }
}

BitsliceMedium::~BitsliceMedium() = default;

int BitsliceMedium::worker_count() const {
  return pool_ == nullptr ? 1 : pool_->workers();
}

int BitsliceMedium::slice_count() const {
  return slices_.empty() ? 1 : static_cast<int>(slices_.size());
}

BitsliceMedium::Recover BitsliceMedium::choose_recovery(bool gather) const {
  if (recovery_ == RecoveryStrategy::kRowScan) return Recover::kScanDeferred;
  // The fused re-walk touches only winning listeners' rows, against
  // transmit-mask words read one loop iteration earlier. Scatter rounds
  // cannot fuse (plane state only settles once every transmitter's row
  // has been applied), so they scan the delivered listeners afterwards.
  return gather ? Recover::kScanFused : Recover::kScanDeferred;
}

// Forced inline: it runs once per touched listener on every traversal
// shape, and an out-of-line call costs measurable time on dense rounds.
[[gnu::always_inline]] inline std::uint64_t BitsliceMedium::emit(Part& p,
                                   std::span<const std::uint64_t> tx_mask,
                                   std::uint64_t lane_mask, graph::NodeId v,
                                   std::uint64_t one,
                                   std::uint64_t two) const {
  ++p.active;
  const std::uint64_t not_tx = ~tx_mask[v];
  const std::uint64_t win = one & ~two & not_tx;
  const std::uint64_t coll = two & not_tx & lane_mask;
  if (win != 0) {
    p.out->delivered.push_back({v, win});
    p.delivered_tally.add(win);
  }
  if (coll != 0) {
    if (model_ == CollisionModel::kDetection) {
      p.out->collisions.push_back({v, coll});
    }
    p.collided_tally.add(coll);
  }
  return win;
}

template <bool kFused, class Sink>
void BitsliceMedium::gather_range(graph::NodeId lo, graph::NodeId hi,
                                  std::span<const std::uint64_t> tx_mask,
                                  std::uint64_t lane_mask, Part& p,
                                  Sink& sink) const {
  for (graph::NodeId v = lo; v < hi; ++v) {
    std::uint64_t one = 0;
    std::uint64_t two = 0;
    const auto row = graph_->neighbors(v);
    simd::gather_row(row.data(), row.size(), tx_mask.data(), lane_mask, one,
                     two);
    if (one == 0) continue;
    const std::uint64_t win = emit(p, tx_mask, lane_mask, v, one, two);
    if constexpr (kFused) {
      if (win == 0) continue;
      // Hot re-walk: the row and its transmit-mask words were read one
      // loop iteration ago, so this is L1 traffic, and it only happens
      // for winning listeners.
      std::uint64_t left = win;
      for (const graph::NodeId u : row) {
        const std::uint64_t hit = left & tx_mask[u];
        if (hit == 0) continue;
        left &= ~hit;
        sink(v, u, hit);
        if (left == 0) break;
      }
    }
  }
}

template <bool kDense>
void BitsliceMedium::scatter_accumulate(
    std::span<const std::uint64_t> tx_mask, std::uint64_t lane_mask) {
  std::uint64_t* const base = planes_.data();
  for (const graph::NodeId u : txlist_) {
    const std::uint64_t m = tx_mask[u] & lane_mask;
    for (const graph::NodeId v : graph_->neighbors(u)) {
      std::uint64_t* const blk = base + 2 * static_cast<std::size_t>(v);
      if constexpr (!kDense) {
        if (blk[0] == 0) touched_.push_back(v);
      }
      blk[1] |= blk[0] & m;
      blk[0] |= m;
    }
  }
}

template <class Sink>
void BitsliceMedium::rowscan_recover(std::span<const std::uint64_t> tx_mask,
                                     BatchOutcome& out, Sink&& sink) const {
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
void BitsliceMedium::run_core(std::uint64_t lane_mask, int lanes,
                              std::uint64_t work, BatchOutcome& out,
                              Recover recover, Sink&& sink) {
  const graph::NodeId n = graph_->node_count();
  const std::span<const std::uint64_t> tx_mask = active_mask_;
  const obs::TraceSpan trace_span("bitslice.round", "lanes",
                                  static_cast<std::uint64_t>(lanes), "work",
                                  work);
  const std::uint64_t t0 = now_ns();
  const bool dense = 2 * work >= n;
  // When transmitters cover at least half of all adjacency, flip the
  // traversal to a listener-centric gather: the planes accumulate in
  // registers, and the fused recovery identifies senders before the
  // listener's row leaves cache.
  const bool gather = work >= graph_->edge_count();
  main_.reset(&out);

  if (gather) {
    // Gather fuses the output scan — and, on kScanFused, sender recovery
    // itself — into the traversal; those phases report 0 and their cost
    // counts toward traverse_ns.
    auto pass = [&](graph::NodeId lo, graph::NodeId hi, Part& p) {
      if (recover == Recover::kScanFused) {
        gather_range<true>(lo, hi, tx_mask, lane_mask, p, sink);
      } else {
        gather_range<false>(lo, hi, tx_mask, lane_mask, p, sink);
      }
    };
    if (pool_ == nullptr) {
      pass(0, n, main_);
    } else {
      auto job = [&](std::size_t si) {
        Slice& s = slices_[si];
        s.buf.clear();
        s.part.reset(&s.buf);
        pass(s.lo, s.hi, s.part);
      };
      pool_->run(slices_.size(), job);
      // Slice-index order, whichever worker ran which slice: the
      // concatenation is exactly the serial pass's node-order output.
      for (const Slice& s : slices_) {
        out.delivered.insert(out.delivered.end(), s.buf.delivered.begin(),
                             s.buf.delivered.end());
        out.collisions.insert(out.collisions.end(), s.buf.collisions.begin(),
                              s.buf.collisions.end());
        main_.active += s.part.active;
        s.part.delivered_tally.add_to(out.delivered_count, lanes);
        s.part.collided_tally.add_to(out.collided_count, lanes);
      }
    }
    timers_.traverse_ns += now_ns() - t0;
  } else {
    // Scatter: bitwise saturating add into the per-listener blocks. Planes
    // are all-zero between rounds, so "one == 0" doubles as the untouched
    // test; the dense path drops even that branch — its output scan walks
    // every listener anyway.
    if (dense) {
      scatter_accumulate<true>(tx_mask, lane_mask);
    } else {
      touched_.clear();
      scatter_accumulate<false>(tx_mask, lane_mask);
    }
    const std::uint64_t t1 = now_ns();
    timers_.traverse_ns += t1 - t0;

    // Output scan, with the re-zeroing (the next round's invariant) fused
    // into the same sweep.
    auto output_block = [&](const graph::NodeId v) {
      std::uint64_t* const blk = planes_.data() + 2 * static_cast<std::size_t>(v);
      emit(main_, tx_mask, lane_mask, v, blk[0], blk[1]);
      blk[0] = 0;
      blk[1] = 0;
    };
    if (dense) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (planes_[2 * static_cast<std::size_t>(v)] != 0) output_block(v);
      }
    } else {
      for (const graph::NodeId v : touched_) output_block(v);
    }
    timers_.output_ns += now_ns() - t1;
  }

  out.active_listeners = main_.active;
  timers_.active_listeners += main_.active;
  main_.delivered_tally.add_to(out.delivered_count, lanes);
  main_.collided_tally.add_to(out.collided_count, lanes);
  const std::uint64_t t2 = now_ns();

  if (recover == Recover::kScanDeferred) rowscan_recover(tx_mask, out, sink);
  if (recover != Recover::kConstFold) {
    ++timers_.rowscan_rounds;
    timers_.recover_ns += now_ns() - t2;
  }
  static obs::Histogram& round_hist =
      obs::Metrics::global().histogram("radio.bitslice.round_ns");
  round_hist.record(now_ns() - t0);
  ++timers_.rounds;
}

void BitsliceMedium::resolve_lanes(std::span<const ActiveTx> tx,
                                   PayloadPlanes payload, int lanes,
                                   KnowledgePlanes best, BatchOutcome& out) {
  const graph::NodeId n = graph_->node_count();
  if (payload.plane_size() != n) {
    throw std::invalid_argument("BitsliceMedium: size mismatch");
  }
  if (lanes < 1 || lanes > kMaxLanes || lanes > payload.lane_capacity()) {
    throw std::invalid_argument("BitsliceMedium: lanes out of range");
  }
  if (best.plane_size() < n || lanes > best.lane_capacity()) {
    throw std::invalid_argument("BitsliceMedium: best too small");
  }
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
    run_round(payload, lanes, best, out, t0);
  } catch (...) {
    unstage();
    throw;
  }
  unstage();
}

void BitsliceMedium::run_round(PayloadPlanes payload, int lanes,
                               KnowledgePlanes best, BatchOutcome& out,
                               std::uint64_t t0) {
  const std::uint64_t lane_mask = radio::lane_mask(lanes);
  out.clear();
  tx_tally_.reset();

  // Prologue over the collected transmitters: per-lane tallies and the
  // traversal-volume estimate that picks the scatter/gather shape and the
  // recovery path. For a lane-invariant plane it also checks whether every
  // transmitter carries one payload value — a fixed-value relay (flood)
  // folds with no sender identification at all.
  std::uint64_t work = 0;
  bool const_plane =
      payload.lane_invariant() && recovery_ == RecoveryStrategy::kAuto;
  Payload const_value = kNoPayload;
  bool const_seen = false;
  for (const graph::NodeId u : txlist_) {
    tx_tally_.add(active_mask_[u]);
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
  tx_tally_.add_to(out.transmitter_count, lanes);
  timers_.traverse_ns += now_ns() - t0;

  const bool gather = work >= graph_->edge_count();
  const Recover recover =
      const_plane ? Recover::kConstFold : choose_recovery(gather);

  // The sink takes one (listener, sender, lane mask) group per call; for
  // lane-invariant payload planes the sender's payload is read once per
  // group instead of once per delivered lane. Pooled gather slices call it
  // concurrently: each writes only its own listeners' best[] runs.
  const bool invariant = payload.lane_invariant();
  const std::size_t bls = best.lane_stride();
  const std::size_t pls = payload.lane_stride();
  run_core(lane_mask, lanes, work, out, recover,
           [&](const graph::NodeId v, const graph::NodeId u,
               std::uint64_t hit) {
             Payload* const brow = best.row(v);
             if (invariant) {
               const Payload p = payload.at(0, u);
               do {
                 const int lane = std::countr_zero(hit);
                 fold_max(brow[static_cast<std::size_t>(lane) * bls], p);
                 hit &= hit - 1;
               } while (hit != 0);
             } else {
               const Payload* const prow = payload.row(u);
               do {
                 const int lane = std::countr_zero(hit);
                 fold_max(brow[static_cast<std::size_t>(lane) * bls],
                          prow[static_cast<std::size_t>(lane) * pls]);
                 hit &= hit - 1;
               } while (hit != 0);
             }
           });
  if (recover != Recover::kConstFold) return;

  const std::uint64_t tr = now_ns();
  for (const auto& dm : out.delivered) {
    Payload* const brow = best.row(dm.node);
    // On a shared plane (lane stride 0) every lane folds into the same
    // word, so the lowest delivered lane stands for all of them.
    std::uint64_t hit = bls == 0 ? dm.lanes & (~dm.lanes + 1) : dm.lanes;
    do {
      const int lane = std::countr_zero(hit);
      fold_max(brow[static_cast<std::size_t>(lane) * bls], const_value);
      hit &= hit - 1;
    } while (hit != 0);
  }
  ++timers_.constfold_rounds;
  timers_.recover_ns += now_ns() - tr;
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
  // Node-major, not shared: the id plane must never const-fold, so the
  // round recovers (and counts) exactly as a sender-recovering round does.
  resolve_lanes(active1_, PayloadPlanes::node_major(ids_, n), 1,
                KnowledgePlanes::node_major(sender_of_, n), batch_out_);

  // One lane: each delivered listener had exactly one sender, whose id the
  // fold left in sender_of_.
  out.deliveries.clear();
  out.collided_nodes.clear();
  out.transmitter_count = batch_out_.transmitter_count[0];
  out.collided_count = batch_out_.collided_count[0];
  out.active_listeners = batch_out_.active_listeners;
  for (const auto& dm : batch_out_.delivered) {
    Payload& sender = sender_of_[dm.node];
    const auto from = static_cast<graph::NodeId>(sender);
    out.deliveries.push_back({dm.node, from, payload1_[from]});
    sender = kNoPayload;
  }
  for (const auto& c : batch_out_.collisions) {
    out.collided_nodes.push_back(c.node);
  }
}

}  // namespace radiocast::radio
