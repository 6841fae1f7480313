#include "radio/slice_pool.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace radiocast::radio {

SlicePool::SlicePool(int workers) {
  const int parked = std::max(1, workers - 1);
  threads_.reserve(static_cast<std::size_t>(parked));
  try {
    for (int w = 1; w <= parked; ++w) {
      threads_.emplace_back(
          [this, w] { worker_loop(static_cast<std::size_t>(w)); });
    }
  } catch (...) {
    stop_and_join();  // the threads already started
    throw;
  }
}

SlicePool::~SlicePool() { stop_and_join(); }

void SlicePool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void SlicePool::drain(JobFn fn, void* ctx, std::size_t count, std::size_t w,
                      std::uint64_t gen) {
  const obs::TraceSpan span("sharded.round", "worker", w, "gen", gen);
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < count; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(ctx, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void SlicePool::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || gen_ != seen; });
    if (stop_) return;
    seen = gen_;
    const JobFn fn = fn_;
    void* const ctx = ctx_;
    const std::size_t count = count_;
    lock.unlock();
    if (obs::tracing_enabled()) {
      obs::set_thread_name(("sharded-worker-" + std::to_string(w)).c_str());
    }
    drain(fn, ctx, count, w, seen);
    lock.lock();
    if (--busy_ == 0) cv_done_.notify_one();
  }
}

void SlicePool::run_erased(std::size_t count, JobFn fn, void* ctx) {
  if (count == 0) return;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = fn;
    ctx_ = ctx;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    busy_ = threads_.size();
    gen = ++gen_;
  }
  cv_work_.notify_all();
  drain(fn, ctx, count, 0, gen);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return busy_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace radiocast::radio
