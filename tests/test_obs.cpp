// The observability layer's contracts:
//   * TraceSession — the flushed file is well-formed Chrome trace JSON
//     (Perfetto-loadable shape: traceEvents with name/ph/pid/tid/ts, "X"
//     events carrying dur, thread_name metadata), nested spans close in
//     the right order, ring wrap drops oldest events and counts them.
//   * Histogram — the log2 bucketing law, exact count/sum, percentile
//     semantics (upper bound of the covering bucket).
//   * Metrics — registry snapshot skips silent instruments, renders
//     name-sorted, reset keeps references valid.
//   * The non-interference promise: a traced sweep's CSV/JSON at
//     --timing=off is byte-identical to an untraced one, and the disabled
//     instrumentation path is cheap enough to live in round kernels.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/planner.hpp"
#include "exp/report.hpp"
#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace radiocast::obs {
namespace {

std::string trace_file(const char* name) {
  return ::testing::TempDir() + "radiocast_" + name + ".trace.json";
}

util::Json flush_and_parse(const std::string& path) {
  const std::string written = TraceSession::global().stop_and_flush();
  EXPECT_EQ(written, path);
  std::ifstream f(path);
  std::stringstream buffer;
  buffer << f.rdbuf();
  std::remove(path.c_str());
  return util::Json::parse(buffer.str());
}

/// Events (non-metadata) with the given name, in file order.
std::vector<const util::Json*> events_named(const util::Json& trace,
                                            const std::string& name) {
  std::vector<const util::Json*> out;
  for (const util::Json& e : trace.find("traceEvents")->items()) {
    if (e.find("name")->as_string() == name) out.push_back(&e);
  }
  return out;
}

// ------------------------------------------------------------ trace session

TEST(Trace, FlushedFileIsWellFormedChromeTraceJson) {
  const std::string path = trace_file("wellformed");
  TraceSession::global().start(path);
  set_thread_name("obs-test-main");
  {
    TraceSpan outer("outer.span", "a", 1, "b", 2);
    {
      TraceSpan inner("inner.span");
      trace_instant("mid.instant");
    }
  }
  trace_counter("some.counter", 42);
  const util::Json trace = flush_and_parse(path);

  EXPECT_EQ(trace.find("displayTimeUnit")->as_string(), "ms");
  const util::Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  bool saw_thread_name = false;
  for (const util::Json& e : events->items()) {
    // Every event carries the Perfetto-required fields.
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") {
      if (e.find("name")->as_string() == "thread_name" &&
          e.find("args")->find("name")->as_string() == "obs-test-main") {
        saw_thread_name = true;
      }
      continue;
    }
    ASSERT_NE(e.find("ts"), nullptr);
    if (ph == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_thread_name);

  // Span arguments round-trip.
  const auto outer = events_named(trace, "outer.span");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0]->find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(outer[0]->find("args")->find("a")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(outer[0]->find("args")->find("b")->as_number(), 2.0);

  // Nesting: inner is contained in outer's [ts, ts+dur] window, and the
  // instant fired inside inner.
  const auto inner = events_named(trace, "inner.span");
  const auto instant = events_named(trace, "mid.instant");
  ASSERT_EQ(inner.size(), 1u);
  ASSERT_EQ(instant.size(), 1u);
  EXPECT_EQ(instant[0]->find("ph")->as_string(), "i");
  const double o_ts = outer[0]->find("ts")->as_number();
  const double o_end = o_ts + outer[0]->find("dur")->as_number();
  const double i_ts = inner[0]->find("ts")->as_number();
  const double i_end = i_ts + inner[0]->find("dur")->as_number();
  EXPECT_LE(o_ts, i_ts);
  EXPECT_LE(i_end, o_end);
  EXPECT_LE(i_ts, instant[0]->find("ts")->as_number());
  EXPECT_LE(instant[0]->find("ts")->as_number(), i_end);

  // Counter events carry their value under args.value.
  const auto counter = events_named(trace, "some.counter");
  ASSERT_EQ(counter.size(), 1u);
  EXPECT_EQ(counter[0]->find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter[0]->find("args")->find("value")->as_number(),
                   42.0);
}

TEST(Trace, RingWrapDropsOldestAndCounts) {
  const std::string path = trace_file("ringwrap");
  TraceSession::global().start(path, /*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) trace_counter("wrap.sample", i);
  const util::Json trace = flush_and_parse(path);
  EXPECT_EQ(TraceSession::global().dropped(), 6u);

  // The survivors are the NEWEST four samples, in order.
  const auto kept = events_named(trace, "wrap.sample");
  ASSERT_EQ(kept.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(kept[i]->find("args")->find("value")->as_number(),
                     6.0 + i);
  }
  const auto dropped = events_named(trace, "trace.dropped_events");
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_DOUBLE_EQ(dropped[0]->find("args")->find("value")->as_number(), 6.0);
}

TEST(Trace, SessionLifecycle) {
  // No session: everything is a cheap no-op.
  EXPECT_FALSE(TraceSession::global().active());
  EXPECT_EQ(TraceSession::global().stop_and_flush(), "");
  trace_instant("goes.nowhere");
  { TraceSpan span("also.nowhere"); }

  const std::string path = trace_file("lifecycle");
  TraceSession::global().start(path);
  EXPECT_TRUE(TraceSession::global().active());
  // Second start while active is a loud error, not a silent truncation.
  EXPECT_THROW(TraceSession::global().start(trace_file("second")),
               std::runtime_error);
  trace_instant("one.event");
  const util::Json trace = flush_and_parse(path);
  EXPECT_FALSE(TraceSession::global().active());
  EXPECT_EQ(events_named(trace, "one.event").size(), 1u);
  // Events recorded after the flush belong to no session and are lost.
  trace_instant("too.late");
}

TEST(Trace, UnwritablePathThrowsOnFlush) {
  TraceSession::global().start("/nonexistent-dir/trace.json");
  trace_instant("doomed");
  EXPECT_THROW(TraceSession::global().stop_and_flush(), std::runtime_error);
  EXPECT_FALSE(TraceSession::global().active());
}

// -------------------------------------------------------------- histograms

TEST(Histogram, Log2BucketingLaw) {
  // bucket 0 holds exactly 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::bucket_max(0), 0u);
  EXPECT_EQ(Histogram::bucket_max(1), 1u);
  EXPECT_EQ(Histogram::bucket_max(2), 3u);
  EXPECT_EQ(Histogram::bucket_max(3), 7u);
  EXPECT_EQ(Histogram::bucket_max(64), ~std::uint64_t{0});
}

TEST(Histogram, CountSumAndPercentiles) {
  Histogram h;
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(4), 1u);
  // Percentile = upper bound of the bucket where the cumulative count
  // reaches ceil(q * total). ceil(0.5 * 7) = 4 -> bucket 2 -> 3;
  // ceil(0.99 * 7) = 7 -> bucket 4 -> 15.
  EXPECT_EQ(h.percentile(0.50), 3u);
  EXPECT_EQ(h.percentile(0.99), 15u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.50), 0u);
}

// ---------------------------------------------------------------- registry

TEST(Metrics, SnapshotSkipsSilentInstrumentsAndSortsNames) {
  Metrics& m = Metrics::global();
  // Process-global registry: use unique names and clean the values up so
  // other tests' snapshots are not polluted.
  m.counter("ztest.obs.silent");  // registered, never incremented
  Counter& hits = m.counter("ztest.obs.hits");
  Counter& misses = m.counter("ztest.obs.a_misses");
  Histogram& lat = m.histogram("ztest.obs.lat");
  hits.add(3);
  misses.add();
  lat.record(5);
  lat.record(1000);

  const util::Json snap = m.snapshot_json();
  const util::Json* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("ztest.obs.silent"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("ztest.obs.hits")->as_number(), 3.0);
  // std::map iteration: "ztest.obs.a_misses" renders before
  // "ztest.obs.hits".
  int a_at = -1, hits_at = -1, at = 0;
  for (const auto& [name, value] : counters->members()) {
    if (name == "ztest.obs.a_misses") a_at = at;
    if (name == "ztest.obs.hits") hits_at = at;
    ++at;
  }
  ASSERT_GE(a_at, 0);
  ASSERT_GE(hits_at, 0);
  EXPECT_LT(a_at, hits_at);

  const util::Json* histo = snap.find("histograms")->find("ztest.obs.lat");
  ASSERT_NE(histo, nullptr);
  EXPECT_DOUBLE_EQ(histo->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(histo->find("sum")->as_number(), 1005.0);
  EXPECT_EQ(histo->find("buckets")->size(), 2u);

  // reset() zeroes values but the hoisted references stay usable.
  hits.reset();
  misses.reset();
  lat.reset();
  hits.add();
  EXPECT_EQ(hits.value(), 1u);
  hits.reset();
}

// ------------------------------------------------- report non-interference

exp::SweepSpec tiny_spec() {
  exp::SweepSpec spec;
  spec.families = {"gnp", "grid"};
  spec.n = {96};
  spec.p = {8.0};
  spec.p_is_degree = true;
  spec.protocols = {"decay"};
  spec.mediums = {radio::MediumKind::kScalar, radio::MediumKind::kBitslice};
  spec.recoveries = {radio::RecoveryStrategy::kAuto};
  spec.lanes = 8;
  spec.reps = 8;
  spec.seed = 11;
  return spec;
}

/// CSV + JSON of the tiny grid with timing off — the byte-stable rendering.
std::pair<std::string, std::string> render_sweep() {
  const exp::SweepSpec spec = tiny_spec();
  const auto jobs = exp::expand(spec);
  sim::Runner runner(2);
  const auto results = exp::Planner().run(jobs, runner);
  util::Table table(exp::long_headers(/*timing=*/false));
  for (const auto& point : results) {
    exp::add_long_row(table, point, /*timing=*/false);
  }
  return {table.to_csv(),
          exp::sweep_json(spec, results, /*timing=*/false).dump(2)};
}

TEST(Trace, DoesNotChangeReportBytesAtTimingOff) {
  const auto [csv_off, json_off] = render_sweep();
  ASSERT_FALSE(csv_off.empty());

  const std::string path = trace_file("noninterference");
  TraceSession::global().start(path);
  const auto [csv_on, json_on] = render_sweep();
  const util::Json trace = flush_and_parse(path);

  EXPECT_EQ(csv_off, csv_on);
  EXPECT_EQ(json_off, json_on);
  // And the trace genuinely observed the run: round spans from both
  // backends and the runner pool's task spans are present.
  EXPECT_FALSE(events_named(trace, "runner.task").empty());
  EXPECT_FALSE(events_named(trace, "scalar.round").empty());
  EXPECT_FALSE(events_named(trace, "bitslice.round").empty());
}

TEST(Report, TimingGateControlsMetrics) {
  const exp::SweepSpec spec = tiny_spec();
  const auto jobs = exp::expand(spec);
  sim::Runner runner(1);
  const auto results = exp::Planner().run(jobs, runner);

  const util::Json timed = exp::sweep_json(spec, results, /*timing=*/true);
  EXPECT_EQ(timed.find("pool"), nullptr);  // v3's steal rollup is gone
  ASSERT_NE(timed.find("metrics"), nullptr);
  ASSERT_NE(timed.find("metrics")->find("histograms"), nullptr);

  const util::Json untimed = exp::sweep_json(spec, results, /*timing=*/false);
  EXPECT_EQ(untimed.find("metrics"), nullptr);
}

// --------------------------------------------------- disabled-path overhead

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RADIOCAST_OBS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RADIOCAST_OBS_SANITIZED 1
#endif
#endif

TEST(Trace, DisabledPathStaysCheap) {
#if defined(RADIOCAST_OBS_SANITIZED) || !defined(NDEBUG)
  GTEST_SKIP() << "overhead bar only meaningful in optimised builds";
#else
  ASSERT_FALSE(TraceSession::global().active());
  constexpr int kIters = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int i = 0; i < kIters; ++i) {
    const TraceSpan span("bar.span", "i", static_cast<std::uint64_t>(i));
    trace_instant("bar.instant");
    sink += static_cast<std::uint64_t>(i);
  }
  const double ns_per_iter =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      kIters;
  EXPECT_NE(sink, 0u);
  // Each iteration is two relaxed loads + branches; the bar is deliberately
  // generous (shared CI machines), but catches any accidental lock or
  // allocation sneaking onto the disabled path.
  EXPECT_LT(ns_per_iter, 250.0);
#endif
}

}  // namespace
}  // namespace radiocast::obs
