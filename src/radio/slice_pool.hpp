// Persistent fork-join pool over an index space — the multi-core executor
// behind the bitslice medium's dense (gather) rounds.
//
// run(count, job) calls job(i) exactly once for every i in [0, count) and
// returns when all calls have finished. The calling thread and
// workers - 1 parked threads claim indices from one shared atomic counter,
// so whoever is free takes the next slice. Which thread runs which index
// is scheduling noise; callers that write per-index outputs and merge them
// in index order stay deterministic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace radiocast::radio {

class SlicePool {
 public:
  /// Starts workers - 1 (at least 1) threads, parked until the first
  /// run(); the thread calling run() is the remaining worker.
  explicit SlicePool(int workers);
  ~SlicePool();
  SlicePool(const SlicePool&) = delete;
  SlicePool& operator=(const SlicePool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs job(i) for every i in [0, count) across the workers and waits.
  /// If any job(i) throws, the first exception is rethrown here once every
  /// worker has finished.
  template <class Job>
  void run(std::size_t count, Job& job) {
    run_erased(
        count,
        [](void* ctx, std::size_t i) { (*static_cast<Job*>(ctx))(i); }, &job);
  }

 private:
  using JobFn = void (*)(void*, std::size_t);

  void run_erased(std::size_t count, JobFn fn, void* ctx);
  void worker_loop(std::size_t w);
  /// Claims indices from next_ and runs them until the counter passes
  /// `count`; worker `w`, generation `gen` label its trace span.
  void drain(JobFn fn, void* ctx, std::size_t count, std::size_t w,
             std::uint64_t gen);
  void stop_and_join();

  // Guards everything below except next_: the current job (written before
  // gen_ advances), the parked threads still running this generation, the
  // first captured exception and the stop flag.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  JobFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t gen_ = 0;
  std::size_t busy_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;

  // The next unclaimed index. Reset under mu_ before gen_ advances; run()
  // returns only after every worker's last claim, so resets never race.
  std::atomic<std::size_t> next_{0};

  // Declared last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace radiocast::radio
