#include "radio/medium_sharded.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/simd.hpp"
#include "util/parse.hpp"

namespace radiocast::radio {

namespace {

// Worker count when the caller passes threads == 0: the
// RADIOCAST_SHARD_THREADS environment variable when set, else a
// hardware-derived default. The env override matters on hosts where
// hardware_concurrency() lies (containers and CI runners often report 1,
// silently degrading the backend to single-threaded). A set-but-invalid
// value (non-numeric, zero, negative) throws instead of silently falling
// back — a typo'd override must never quietly change the worker count.
int default_threads() {
  if (const char* env = std::getenv("RADIOCAST_SHARD_THREADS")) {
    const int v = util::parse_positive_int(env, "RADIOCAST_SHARD_THREADS");
    return std::min(v, 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

// ~16k adjacency entries per slice keeps a slice several L2-resident row
// walks big (steal overhead amortized) while giving every realistic worker
// count plenty of steal granularity.
constexpr std::uint64_t kAdjPerSlice = 16384;
constexpr int kMaxSlices = 4096;

// Slice count when the caller passes slices == 0: the
// RADIOCAST_SHARD_SLICES environment variable when set (same
// throw-on-invalid contract as the thread override), else one slice per
// ~kAdjPerSlice adjacency entries. Deliberately a function of the GRAPH
// only — never of the worker count — so the outcome of a round cannot
// depend on how many workers happen to execute it.
int default_slices(std::uint64_t total_adjacency) {
  if (const char* env = std::getenv("RADIOCAST_SHARD_SLICES")) {
    const int v = util::parse_positive_int(env, "RADIOCAST_SHARD_SLICES");
    return std::min(v, kMaxSlices);
  }
  const std::uint64_t want = total_adjacency / kAdjPerSlice;
  return static_cast<int>(std::clamp<std::uint64_t>(want, 1, 512));
}

// Number of online NUMA nodes, parsed from the kernel's cpu-list syntax
// ("0", "0-1", "0,2-3"). 1 when sysfs is unavailable (non-Linux, sandbox)
// — the steal order then degrades to plain cyclic.
int numa_group_count() {
  std::ifstream f("/sys/devices/system/node/online");
  if (!f) return 1;
  std::string s;
  std::getline(f, s);
  int count = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    char* end = nullptr;
    const long lo = std::strtol(s.c_str() + i, &end, 10);
    if (end == s.c_str() + i) break;
    i = static_cast<std::size_t>(end - s.c_str());
    long hi = lo;
    if (i < s.size() && s[i] == '-') {
      hi = std::strtol(s.c_str() + i + 1, &end, 10);
      i = static_cast<std::size_t>(end - s.c_str());
    }
    if (hi >= lo) count += static_cast<int>(hi - lo + 1);
    if (i < s.size() && s[i] == ',') {
      ++i;
    } else {
      break;
    }
  }
  return std::max(1, count);
}

}  // namespace

ShardedMedium::ShardedMedium(const graph::Graph& g, CollisionModel model,
                             int threads, int slices)
    : Medium(g, model), scalar_(g, model) {
  const graph::NodeId n = g.node_count();
  one_.assign(n, 0);
  two_.assign(n, 0);

  const auto prefix = g.degree_prefix();
  const std::uint64_t total = n == 0 ? 0 : prefix[n];

  int want_slices = slices == 0 ? default_slices(total) : std::max(1, slices);
  want_slices = std::min<int>(want_slices, kMaxSlices);
  want_slices = std::min<int>(want_slices, std::max<graph::NodeId>(1, n));

  // Cut the listener space so every slice owns ~the same adjacency volume
  // (degree_prefix is the CSR offset array: offsets[v] = sum of degrees of
  // nodes < v). The cuts depend only on the graph and the slice count.
  slices_.resize(static_cast<std::size_t>(want_slices));
  node_slice_.assign(n, 0);
  graph::NodeId cut = 0;
  for (int s = 0; s < want_slices; ++s) {
    slices_[static_cast<std::size_t>(s)].lo = cut;
    if (s + 1 == want_slices) {
      cut = n;
    } else {
      const std::uint64_t target =
          total * static_cast<std::uint64_t>(s + 1) /
          static_cast<std::uint64_t>(want_slices);
      const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
      cut = std::max(cut, static_cast<graph::NodeId>(
                              std::min<std::ptrdiff_t>(it - prefix.begin(),
                                                       n)));
    }
    slices_[static_cast<std::size_t>(s)].hi = cut;
    for (graph::NodeId v = slices_[static_cast<std::size_t>(s)].lo; v < cut;
         ++v) {
      node_slice_[v] = static_cast<std::uint32_t>(s);
    }
  }

  int want = threads == 0 ? default_threads() : std::max(1, threads);
  want = std::min<int>(want, std::max<graph::NodeId>(1, n));
  worker_count_ = want;

  if (want > 1) {
    const std::size_t w_count = static_cast<std::size_t>(want);
    ranges_ = std::vector<std::atomic<std::uint64_t>>(w_count);
    worker_stats_.assign(w_count, {});
    // Victim order: same NUMA group first (slices assigned to nearby
    // workers share memory locality), then the rest — each tier cyclic
    // from the thief's own index so contention spreads.
    const int groups = numa_group_count();
    const auto group_of = [&](std::size_t w) {
      return w * static_cast<std::size_t>(groups) / w_count;
    };
    steal_order_.assign(w_count, {});
    for (std::size_t w = 0; w < w_count; ++w) {
      auto& order = steal_order_[w];
      for (std::size_t k = 1; k < w_count; ++k) {
        const std::size_t v = (w + k) % w_count;
        if (group_of(v) == group_of(w)) order.push_back(v);
      }
      for (std::size_t k = 1; k < w_count; ++k) {
        const std::size_t v = (w + k) % w_count;
        if (group_of(v) != group_of(w)) order.push_back(v);
      }
    }
    workers_.reserve(w_count);
    for (std::size_t w = 0; w < w_count; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

ShardedMedium::~ShardedMedium() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ShardedMedium::pop_front(std::atomic<std::uint64_t>& range,
                              std::uint32_t& idx) {
  std::uint64_t cur = range.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t lo = static_cast<std::uint32_t>(cur >> 32);
    const std::uint32_t hi = static_cast<std::uint32_t>(cur);
    if (lo >= hi) return false;
    const std::uint64_t next =
        (static_cast<std::uint64_t>(lo + 1) << 32) | hi;
    if (range.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      idx = lo;
      return true;
    }
  }
}

bool ShardedMedium::steal_back(std::atomic<std::uint64_t>& range,
                               std::uint32_t& idx) {
  std::uint64_t cur = range.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t lo = static_cast<std::uint32_t>(cur >> 32);
    const std::uint32_t hi = static_cast<std::uint32_t>(cur);
    if (lo >= hi) return false;
    const std::uint64_t next =
        (static_cast<std::uint64_t>(lo) << 32) | (hi - 1);
    if (range.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      idx = hi - 1;
      return true;
    }
  }
}

void ShardedMedium::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || job_gen_ != seen; });
    if (stop_) return;
    seen = job_gen_;
    lock.unlock();
    if (obs::tracing_enabled()) {
      obs::set_thread_name(
          ("sharded-worker-" + std::to_string(w)).c_str());
    }
    std::uint32_t idx = 0;
    std::uint64_t attempts = 0;
    std::uint64_t steals = 0;
    {
      obs::TraceSpan span("sharded.round", "worker", w, "gen", seen);
      // Drain my own deque from the front, then steal from the back of the
      // other workers' deques. Every slice index is claimed by exactly one
      // CAS, so each slice runs exactly once regardless of interleaving.
      while (pop_front(ranges_[w], idx)) run_slice(idx);
      for (const std::size_t victim : steal_order_[w]) {
        for (;;) {
          ++attempts;
          if (!steal_back(ranges_[victim], idx)) break;
          ++steals;
          run_slice(idx);
        }
      }
    }
    const std::uint64_t finish = now_ns();
    lock.lock();
    WorkerStats& stats = worker_stats_[w];
    stats.steal_attempts += attempts;
    stats.steals += steals;
    stats.finish_ns = finish;
    if (++done_workers_ == workers_.size()) cv_done_.notify_one();
  }
}

void ShardedMedium::kick_and_wait() {
  const std::size_t slice_total = slices_.size();
  if (workers_.empty()) {
    for (std::size_t si = 0; si < slice_total; ++si) run_slice(si);
    return;
  }
  const std::size_t w_count = workers_.size();
  for (std::size_t w = 0; w < w_count; ++w) {
    const std::uint64_t lo = slice_total * w / w_count;
    const std::uint64_t hi = slice_total * (w + 1) / w_count;
    ranges_[w].store(lo << 32 | hi, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_workers_ = 0;
    ++job_gen_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return done_workers_ == workers_.size(); });
  // Fold each worker's round accounting into the timers. A worker's idle
  // tail is the gap between its own finish and the round's last finisher —
  // the imbalance stealing could not absorb.
  const std::uint64_t round_end = now_ns();
  std::uint64_t round_steals = 0;
  for (WorkerStats& stats : worker_stats_) {
    timers_.steal_attempts += stats.steal_attempts;
    timers_.steals += stats.steals;
    round_steals += stats.steals;
    if (stats.finish_ns != 0 && round_end > stats.finish_ns) {
      timers_.idle_ns += round_end - stats.finish_ns;
    }
    stats = WorkerStats{};
  }
  static obs::Histogram& steals_hist =
      obs::Metrics::global().histogram("radio.sharded.steals_per_round");
  steals_hist.record(round_steals);
}

void ShardedMedium::build_slice_tx() {
  for (auto& s : slices_) s.tx.clear();
  // Rows are sorted and slices are contiguous node intervals, so each
  // row decomposes into runs of equal slice index — one O(degree) walk
  // per transmitter, no binary searches, and each slice's list arrives
  // in txlist_ order (worker-independent by construction).
  for (const graph::NodeId u : txlist_) {
    const auto row = graph_->neighbors(u);
    std::uint32_t start = 0;
    const std::uint32_t len = static_cast<std::uint32_t>(row.size());
    while (start < len) {
      const std::uint32_t si = node_slice_[row[start]];
      std::uint32_t end = start + 1;
      while (end < len && node_slice_[row[end]] == si) ++end;
      slices_[si].tx.push_back({u, start, end});
      start = end;
    }
  }
}

void ShardedMedium::run_slice(std::size_t si) {
  Slice& s = slices_[si];
  s.active = 0;
  s.delivered_b.clear();
  s.deliveries_b.clear();
  s.collisions_b.clear();
  s.delivered_tally.reset();
  s.collided_tally.reset();
  if (gather_) {
    run_slice_batch_gather(s);
  } else {
    run_slice_batch_scatter(s);
  }
}

std::uint64_t ShardedMedium::emit_batch_listener(Slice& s, graph::NodeId v,
                                                 std::uint64_t one,
                                                 std::uint64_t two) {
  ++s.active;
  const std::uint64_t not_tx = ~round_mask_[v];
  const std::uint64_t win = one & ~two & not_tx;
  const std::uint64_t coll = two & not_tx & round_live_;
  if (win != 0) {
    s.delivered_b.push_back({v, win});
    s.delivered_tally.add(win);
  }
  if (coll != 0) {
    if (model_ == CollisionModel::kDetection) {
      s.collisions_b.push_back({v, coll});
    }
    s.collided_tally.add(coll);
  }
  return win;
}

void ShardedMedium::fold_const_batch(graph::NodeId v, std::uint64_t win) {
  Payload* const brow = round_best_.row(v);
  const std::size_t bls = round_best_.lane_stride();
  do {
    const int lane = std::countr_zero(win);
    Payload& b = brow[static_cast<std::size_t>(lane) * bls];
    if (b == kNoPayload || const_value_ > b) b = const_value_;
    win &= win - 1;
  } while (win != 0);
}

void ShardedMedium::sink_batch(Slice& s, graph::NodeId v, graph::NodeId u,
                               std::uint64_t hit) {
  const bool invariant = round_payload_.lane_invariant();
  if (fold_ == FoldMode::kSenders) {
    if (invariant) {
      const Payload p = round_payload_.at(0, u);
      do {
        const int lane = std::countr_zero(hit);
        s.deliveries_b.push_back({v, static_cast<std::uint8_t>(lane), u, p});
        hit &= hit - 1;
      } while (hit != 0);
    } else {
      do {
        const int lane = std::countr_zero(hit);
        s.deliveries_b.push_back({v, static_cast<std::uint8_t>(lane), u,
                                  round_payload_.at(lane, u)});
        hit &= hit - 1;
      } while (hit != 0);
    }
    return;
  }
  // kMaxFold: max-combine straight into the knowledge planes — slices own
  // disjoint listener intervals, so v's lane run is only ever touched by
  // the worker running this slice.
  Payload* const brow = round_best_.row(v);
  const std::size_t bls = round_best_.lane_stride();
  if (invariant) {
    const Payload p = round_payload_.at(0, u);
    do {
      const int lane = std::countr_zero(hit);
      Payload& b = brow[static_cast<std::size_t>(lane) * bls];
      if (b == kNoPayload || p > b) b = p;
      hit &= hit - 1;
    } while (hit != 0);
  } else {
    const Payload* const prow = round_payload_.row(u);
    const std::size_t pls = round_payload_.lane_stride();
    do {
      const int lane = std::countr_zero(hit);
      Payload& b = brow[static_cast<std::size_t>(lane) * bls];
      const Payload p = prow[static_cast<std::size_t>(lane) * pls];
      if (b == kNoPayload || p > b) b = p;
      hit &= hit - 1;
    } while (hit != 0);
  }
}

void ShardedMedium::rowscan_batch(Slice& s, graph::NodeId v,
                                  std::uint64_t win) {
  // Clearing row scan: each won lane's unique sender is the only
  // transmitting neighbour in it, so lanes clear as senders are found.
  std::uint64_t left = win;
  for (const graph::NodeId u : graph_->neighbors(v)) {
    const std::uint64_t hit = left & round_mask_[u];
    if (hit == 0) continue;
    left &= ~hit;
    sink_batch(s, v, u, hit);
    if (left == 0) break;
  }
}

void ShardedMedium::run_slice_batch_gather(Slice& s) {
  // Listener-centric 64-lane gather over my interval: the bitslice kernel
  // shape, one slice per work-stealing unit. Sender recovery (when the
  // fold needs it) is fused — the re-walked row is L1-hot.
  const std::uint64_t* const mask = round_mask_;
  const std::uint64_t live = round_live_;
  for (graph::NodeId v = s.lo; v < s.hi; ++v) {
    std::uint64_t one = 0;
    std::uint64_t two = 0;
    const auto row = graph_->neighbors(v);
    simd::gather_row(row.data(), row.size(), mask, live, one, two);
    if (one == 0) continue;
    const std::uint64_t win = emit_batch_listener(s, v, one, two);
    if (win == 0 || fold_ == FoldMode::kMasksOnly) continue;
    if (const_fold_) {
      fold_const_batch(v, win);
    } else {
      rowscan_batch(s, v, win);
    }
  }
}

void ShardedMedium::run_slice_batch_scatter(Slice& s) {
  // Saturating bitplane scatter from my pre-segmented row runs, then a
  // drain over the touched listeners (first-touch order, which is
  // txlist-row order — worker-independent). one_/two_ are all-zero
  // between rounds; the drain restores that invariant.
  const std::uint64_t live = round_live_;
  s.touched.clear();
  for (const SliceTx& t : s.tx) {
    const std::uint64_t m = round_mask_[t.u] & live;
    const auto row = graph_->neighbors(t.u);
    for (std::uint32_t i = t.begin; i < t.end; ++i) {
      const graph::NodeId v = row[i];
      if (one_[v] == 0) s.touched.push_back(v);
      two_[v] |= one_[v] & m;
      one_[v] |= m;
    }
  }
  for (const graph::NodeId v : s.touched) {
    const std::uint64_t one = one_[v];
    const std::uint64_t two = two_[v];
    one_[v] = 0;
    two_[v] = 0;
    const std::uint64_t win = emit_batch_listener(s, v, one, two);
    if (win == 0 || fold_ == FoldMode::kMasksOnly) continue;
    if (const_fold_) {
      fold_const_batch(v, win);
    } else {
      rowscan_batch(s, v, win);
    }
  }
}

void ShardedMedium::run_batch(std::span<const std::uint64_t> tx_mask,
                              PayloadPlanes payload, int lanes,
                              BatchOutcome& out, FoldMode mode,
                              KnowledgePlanes best) {
  const graph::NodeId n = graph_->node_count();
  if (tx_mask.size() != n || payload.plane_size() != n) {
    throw std::invalid_argument("ShardedMedium: size mismatch");
  }
  if (lanes < 1 || lanes > kMaxLanes || lanes > payload.lane_capacity()) {
    throw std::invalid_argument("ShardedMedium: lanes out of range");
  }
  const std::uint64_t live = radio::lane_mask(lanes);
  out.clear();
  tx_tally_.reset();

  const obs::TraceSpan trace_span("sharded.batch_round", "lanes",
                                  static_cast<std::uint64_t>(lanes));
  const std::uint64_t t0 = now_ns();
  // Serial prologue: transmitter list, per-lane tallies, the
  // traversal-volume estimate that picks the gather/scatter shape, and —
  // for a lane-invariant max-fold — the constant-payload check that lets
  // deliveries fold with no sender identification (see the bitslice
  // backend's const-fold).
  txlist_.clear();
  std::uint64_t work = 0;
  bool const_plane = mode == FoldMode::kMaxFold && payload.lane_invariant() &&
                     recovery_ == RecoveryStrategy::kAuto;
  Payload const_value = kNoPayload;
  bool const_seen = false;
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::uint64_t m = tx_mask[u] & live;
    if (m == 0) continue;
    tx_tally_.add(m);
    txlist_.push_back(u);
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

  const bool gather = work >= graph_->edge_count();
  gather_ = gather;
  fold_ = mode;
  const_fold_ = const_plane;
  const_value_ = const_value;
  round_mask_ = tx_mask.data();
  round_payload_ = payload;
  round_best_ = best;
  round_lanes_ = lanes;
  round_live_ = live;
  if (!gather) build_slice_tx();
  kick_and_wait();
  // Slices fuse accumulation, emission, and recovery, so the prologue and
  // the whole parallel section count as traversal; only the slice-ordered
  // merge below is attributable to the output phase.
  const std::uint64_t t1 = now_ns();
  timers_.traverse_ns += t1 - t0;

  // Deterministic merge: slice-index order, regardless of which worker ran
  // which slice. Per-slice tallies extract into a zeroed scratch and SUM
  // (LaneCounter::extract ORs bits, so it must not target the aggregate).
  std::array<std::uint32_t, kMaxLanes> scratch;
  std::uint32_t active = 0;
  for (const auto& s : slices_) {
    out.delivered.insert(out.delivered.end(), s.delivered_b.begin(),
                         s.delivered_b.end());
    if (mode == FoldMode::kSenders) {
      out.deliveries.insert(out.deliveries.end(), s.deliveries_b.begin(),
                            s.deliveries_b.end());
    }
    out.collisions.insert(out.collisions.end(), s.collisions_b.begin(),
                          s.collisions_b.end());
    active += s.active;
    scratch.fill(0);
    s.delivered_tally.extract(scratch, lanes);
    for (int l = 0; l < lanes; ++l) out.delivered_count[l] += scratch[l];
    scratch.fill(0);
    s.collided_tally.extract(scratch, lanes);
    for (int l = 0; l < lanes; ++l) out.collided_count[l] += scratch[l];
  }
  out.active_listeners = active;
  timers_.active_listeners += active;
  const std::uint64_t t2 = now_ns();
  timers_.output_ns += t2 - t1;
  static obs::Histogram& round_hist =
      obs::Metrics::global().histogram("radio.sharded.round_ns");
  round_hist.record(t2 - t0);
  if (mode != FoldMode::kMasksOnly) {
    if (const_fold_) {
      ++timers_.constfold_rounds;
    } else {
      ++timers_.rowscan_rounds;
    }
  }
  ++timers_.rounds;
}

void ShardedMedium::resolve_batch(std::span<const std::uint64_t> tx_mask,
                                  PayloadPlanes payload, int lanes,
                                  BatchOutcome& out, bool with_senders) {
  run_batch(tx_mask, payload, lanes, out,
            with_senders ? FoldMode::kSenders : FoldMode::kMasksOnly,
            KnowledgePlanes(std::span<Payload>{}));
}

void ShardedMedium::resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                                      PayloadPlanes payload, int lanes,
                                      KnowledgePlanes best,
                                      BatchOutcome& out) {
  if (best.plane_size() < graph_->node_count() ||
      lanes > best.lane_capacity()) {
    throw std::invalid_argument(
        "ShardedMedium::resolve_batch_max: best too small");
  }
  run_batch(tx_mask, payload, lanes, out, FoldMode::kMaxFold, best);
}

void ShardedMedium::resolve(std::span<const graph::NodeId> transmitters,
                            std::span<const Payload> tx_payload,
                            SparseOutcome& out) {
  scalar_.reset_phase_timers();
  scalar_.resolve(transmitters, tx_payload, out);
  // The scalar kernel fills these four; the rest stay zero there.
  const PhaseTimers& t = scalar_.phase_timers();
  timers_.traverse_ns += t.traverse_ns;
  timers_.output_ns += t.output_ns;
  timers_.active_listeners += t.active_listeners;
  timers_.rounds += t.rounds;
}

}  // namespace radiocast::radio
