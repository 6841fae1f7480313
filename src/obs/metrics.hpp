// Process-wide registry of named counters, gauges, and log2-bucketed
// histograms.
//
// obs::Metrics is the aggregate complement of the trace: where the trace
// answers "when did this span run on which thread", metrics answer "how
// were round latencies / task walls / generation costs distributed over the
// whole run". Instruments register lazily by name and live for the process
// (references returned by counter()/gauge()/histogram() are stable
// forever; reset() zeroes values but never invalidates them), so hot sites
// hoist a `static Counter&` and pay a few relaxed atomic ops per event.
//
// snapshot_json() renders the registry name-sorted for byte-stable output
// given equal values. The snapshot lands in sweep/bench JSON as part of
// report schema v3 — gated under --timing, because the values are
// wall-clock- and scheduling-dependent, and --timing=off output must stay
// byte-identical across machines, thread counts, and resumes.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace radiocast::obs {

/// Monotonic event count. add() is a relaxed fetch_add — safe from any
/// thread, never a synchronisation point.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (queue depth, active worker count, ...).
class Gauge {
 public:
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed distribution of non-negative integer samples (latencies
/// in ns, counts, reps). Bucket b counts samples v with
/// bit_width(v) == b: bucket 0 holds v = 0, bucket b >= 1 holds
/// [2^(b-1), 2^b). Fixed 65 buckets cover the whole uint64 range, so
/// record() is two relaxed fetch_adds and a bit_width — no allocation, no
/// locking, any thread.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket index a value lands in (0 for 0, else 1 + floor(log2 v)).
  static int bucket_of(std::uint64_t v) {
    return static_cast<int>(std::bit_width(v));
  }
  /// Inclusive upper bound of bucket b (0, 1, 3, 7, ...).
  static std::uint64_t bucket_max(int b) {
    return b == 0 ? 0
           : b >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << b) - 1;
  }

  std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Upper bound of the bucket where the cumulative count first reaches
  /// `q` (0 < q <= 1) of the total — a log2-resolution percentile. 0 when
  /// empty.
  std::uint64_t percentile(double q) const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// The registry. Lookup by name is mutex-guarded (registration is rare and
/// call sites hoist the reference); the instruments themselves are
/// lock-free.
class Metrics {
 public:
  static Metrics& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Name-sorted snapshot:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"count", "sum", "mean", "p50", "p90",
  ///                          "p99", "max", "buckets": [[bucket_max,
  ///                          count], ...nonzero only]}, ...}}
  /// Instruments that never recorded anything are skipped, so a snapshot
  /// only speaks for code paths that actually ran.
  util::Json snapshot_json() const;

  /// Zeroes every registered instrument (references stay valid).
  void reset();

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

 private:
  Metrics() = default;
};

}  // namespace radiocast::obs
