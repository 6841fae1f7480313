// Chase-Lev-style work-stealing pool over an index space — the multi-core
// executor behind the bitslice medium's dense (gather) rounds.
//
// run(count, job) calls job(i) exactly once for every i in [0, count)
// and returns when all calls have finished. Each worker owns a deque (a
// contiguous index range packed into one atomic word), pops work from its
// front, and steals from the back of other workers' deques once its own
// is dry — victims ordered topology-aware (same NUMA group first, detected
// from /sys/devices/system/node when available, plain cyclic otherwise).
// Which worker runs which index is scheduling noise; callers that write
// per-index outputs and merge them in index order stay deterministic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "radio/medium.hpp"

namespace radiocast::radio {

class StealPool {
 public:
  /// Starts `workers` (>= 2) threads, parked until the first run().
  explicit StealPool(int workers);
  ~StealPool();
  StealPool(const StealPool&) = delete;
  StealPool& operator=(const StealPool&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// Runs job(i) for every i in [0, count) across the workers and waits.
  /// Steal attempts, steals and the idle tail (ns workers sat finished
  /// while the round's slowest worker was still running) accumulate into
  /// `timers`.
  template <class Job>
  void run(std::size_t count, Job& job, PhaseTimers& timers) {
    run_erased(
        count,
        [](void* ctx, std::size_t i) { (*static_cast<Job*>(ctx))(i); }, &job,
        timers);
  }

 private:
  using JobFn = void (*)(void*, std::size_t);

  void run_erased(std::size_t count, JobFn fn, void* ctx, PhaseTimers& timers);
  void worker_loop(std::size_t w);
  /// Own-deque pop (front) / steal (back) over the packed {lo,hi} range.
  static bool pop_front(std::atomic<std::uint64_t>& range, std::uint32_t& idx);
  static bool steal_back(std::atomic<std::uint64_t>& range,
                         std::uint32_t& idx);

  // The current job, written under mu_ before a generation starts.
  JobFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;

  // Per-worker packed {next, end} index ranges plus the steal order (same
  // topology group first).
  std::vector<std::atomic<std::uint64_t>> ranges_;
  std::vector<std::vector<std::size_t>> steal_order_;

  // Per-worker steal/finish accounting for one run, written under mu_
  // when a worker finishes and folded into the caller's timers afterwards.
  struct WorkerStats {
    std::uint64_t steal_attempts = 0;
    std::uint64_t steals = 0;
    std::uint64_t finish_ns = 0;
  };
  std::vector<WorkerStats> worker_stats_;

  // Synchronisation: run_erased bumps job_gen_ and waits until every
  // worker has drained every deque for that generation.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t job_gen_ = 0;
  std::size_t done_workers_ = 0;
  bool stop_ = false;
};

}  // namespace radiocast::radio
