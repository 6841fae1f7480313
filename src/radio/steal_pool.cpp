#include "radio/steal_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace radiocast::radio {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
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

StealPool::StealPool(int workers) {
  const std::size_t w_count = static_cast<std::size_t>(std::max(2, workers));
  ranges_ = std::vector<std::atomic<std::uint64_t>>(w_count);
  worker_stats_.assign(w_count, {});
  // Victim order: same NUMA group first (indices assigned to nearby
  // workers share memory locality), then the rest — each tier cyclic from
  // the thief's own index so contention spreads.
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

StealPool::~StealPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

bool StealPool::pop_front(std::atomic<std::uint64_t>& range,
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

bool StealPool::steal_back(std::atomic<std::uint64_t>& range,
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

void StealPool::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || job_gen_ != seen; });
    if (stop_) return;
    seen = job_gen_;
    const JobFn fn = job_fn_;
    void* const ctx = job_ctx_;
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
      // other workers' deques. Every index is claimed by exactly one CAS,
      // so each job(i) runs exactly once regardless of interleaving.
      while (pop_front(ranges_[w], idx)) fn(ctx, idx);
      for (const std::size_t victim : steal_order_[w]) {
        for (;;) {
          ++attempts;
          if (!steal_back(ranges_[victim], idx)) break;
          ++steals;
          fn(ctx, idx);
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

void StealPool::run_erased(std::size_t count, JobFn fn, void* ctx,
                           PhaseTimers& timers) {
  const std::size_t w_count = workers_.size();
  for (std::size_t w = 0; w < w_count; ++w) {
    const std::uint64_t lo = count * w / w_count;
    const std::uint64_t hi = count * (w + 1) / w_count;
    ranges_[w].store(lo << 32 | hi, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    done_workers_ = 0;
    ++job_gen_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return done_workers_ == workers_.size(); });
  // Fold each worker's accounting into the timers. A worker's idle tail
  // is the gap between its own finish and the run's last finisher — the
  // imbalance stealing could not absorb.
  const std::uint64_t round_end = now_ns();
  std::uint64_t round_steals = 0;
  for (WorkerStats& stats : worker_stats_) {
    timers.steal_attempts += stats.steal_attempts;
    timers.steals += stats.steals;
    round_steals += stats.steals;
    if (stats.finish_ns != 0 && round_end > stats.finish_ns) {
      timers.idle_ns += round_end - stats.finish_ns;
    }
    stats = WorkerStats{};
  }
  static obs::Histogram& steals_hist =
      obs::Metrics::global().histogram("radio.sharded.steals_per_round");
  steals_hist.record(round_steals);
}

}  // namespace radiocast::radio
