#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace radiocast::util {

void parallel_for(int count, int threads, const char* span,
                  const char* thread_prefix,
                  const std::function<void(int)>& task) {
  const int workers = std::min(threads, count);
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) {
      const obs::TraceSpan trace_span(span, "index",
                                      static_cast<std::uint64_t>(i));
      task(i);
    }
    return;
  }
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto worker = [&](int w) {
    if (obs::tracing_enabled()) {
      obs::set_thread_name(
          (std::string(thread_prefix) + "-" + std::to_string(w)).c_str());
    }
    while (!failed.load(std::memory_order_relaxed)) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const obs::TraceSpan trace_span(span, "index",
                                      static_cast<std::uint64_t>(i));
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  } catch (...) {
    failed.store(true, std::memory_order_relaxed);  // stop the started ones
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace radiocast::util
