// The exp subsystem's contracts:
//   * Accumulator — Welford mean/stddev agree with a naive two-pass over a
//     fixed sample; quantiles, Wilson intervals, theory overlay.
//   * SweepSpec — axis expression parsing, manifest round trip
//     (parse -> expand -> job count), bad-grid error paths.
//   * Planner — grid expansion shape, and THE sweep determinism promise:
//     the same spec produces byte-identical CSV and JSON for any Runner
//     thread count, and identical protocol outcomes across medium /
//     recovery execution axes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/planner.hpp"
#include "exp/report.hpp"
#include "exp/spec.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace radiocast::exp {
namespace {

// -------------------------------------------------------------- accumulator

TEST(Accumulator, WelfordMatchesNaiveTwoPass) {
  const std::vector<double> sample{3, 5, 7, 11, 13, 17, 19, 23, 104, 0.5};
  Accumulator acc;
  for (const double x : sample) acc.add(true, x);

  // Naive two-pass reference.
  double sum = 0.0;
  for (const double x : sample) sum += x;
  const double mean = sum / static_cast<double>(sample.size());
  double ss = 0.0;
  for (const double x : sample) ss += (x - mean) * (x - mean);
  const double stddev = std::sqrt(ss / static_cast<double>(sample.size() - 1));

  EXPECT_EQ(acc.rounds().count(), sample.size());
  EXPECT_NEAR(acc.rounds().mean(), mean, 1e-12);
  EXPECT_NEAR(acc.rounds().stddev(), stddev, 1e-12);
  EXPECT_DOUBLE_EQ(acc.rounds().min(), 0.5);
  EXPECT_DOUBLE_EQ(acc.rounds().max(), 104.0);
}

TEST(Accumulator, QuantilesAndSuccessCounting) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(true, static_cast<double>(i));
  acc.add(false, 9999.0);  // failure: counts as a trial, rounds ignored
  acc.add(false, 9999.0);
  EXPECT_EQ(acc.trials(), 102u);
  EXPECT_EQ(acc.successes(), 100u);
  EXPECT_NEAR(acc.success_rate(), 100.0 / 102.0, 1e-12);
  EXPECT_NEAR(acc.rounds_median(), 50.5, 1e-9);
  EXPECT_NEAR(acc.rounds_p95(), 95.05, 0.2);
  EXPECT_DOUBLE_EQ(acc.rounds().max(), 100.0);  // failures never leak in

  const util::WilsonInterval w = acc.wilson();
  EXPECT_LE(w.lo, acc.success_rate());
  EXPECT_GE(w.hi, acc.success_rate());
  EXPECT_GT(w.lo, 0.9);
  EXPECT_LT(w.hi, 1.0);
}

TEST(Accumulator, TheoryOverlayAndAbsentMetrics) {
  Accumulator acc;
  acc.add(true, 50.0, /*deliveries=*/100.0);
  acc.add(true, 150.0, Accumulator::kAbsent);  // NaN metric skipped
  acc.set_theory_bound(200.0);
  EXPECT_DOUBLE_EQ(acc.rounds_over_bound(), 0.5);
  EXPECT_EQ(acc.deliveries().count(), 1u);
  Accumulator empty;
  empty.set_theory_bound(200.0);
  EXPECT_DOUBLE_EQ(empty.rounds_over_bound(), 0.0);
  EXPECT_DOUBLE_EQ(empty.success_rate(), 0.0);
}

// --------------------------------------------------------------------- axes

TEST(SweepSpec, AxisExpressions) {
  const auto list = parse_double_axis("0.5,1,2", "t");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[1], 1.0);

  const auto lin = parse_double_axis("lin:10..30:3", "t");
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 10.0);
  EXPECT_DOUBLE_EQ(lin[1], 20.0);
  EXPECT_DOUBLE_EQ(lin[2], 30.0);

  const auto geom = parse_double_axis("geom:0.001..0.1:3", "t");
  ASSERT_EQ(geom.size(), 3u);
  EXPECT_NEAR(geom[0], 0.001, 1e-12);
  EXPECT_NEAR(geom[1], 0.01, 1e-9);
  EXPECT_NEAR(geom[2], 0.1, 1e-12);

  const auto single = parse_double_axis("geom:7..9:1", "t");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 7.0);

  // Integer axis rounds and drops consecutive duplicates.
  const auto ints = parse_int_axis("geom:10..20:8", "t");
  ASSERT_GE(ints.size(), 2u);
  EXPECT_EQ(ints.front(), 10u);
  EXPECT_EQ(ints.back(), 20u);
  for (std::size_t i = 1; i < ints.size(); ++i) {
    EXPECT_GT(ints[i], ints[i - 1]);
  }
}

TEST(SweepSpec, AxisErrorPaths) {
  EXPECT_THROW(parse_double_axis("", "t"), std::invalid_argument);
  EXPECT_THROW(parse_double_axis("1,,2", "t"), std::invalid_argument);
  EXPECT_THROW(parse_double_axis("1,x", "t"), std::invalid_argument);
  EXPECT_THROW(parse_double_axis("lin:5..1:3", "t"), std::invalid_argument);
  EXPECT_THROW(parse_double_axis("lin:1..5:0", "t"), std::invalid_argument);
  EXPECT_THROW(parse_double_axis("geom:0..1:3", "t"), std::invalid_argument);
  EXPECT_THROW(parse_double_axis("lin:1..5", "t"), std::invalid_argument);
  EXPECT_THROW(parse_int_axis("-4", "t"), std::invalid_argument);
}

TEST(SweepSpec, ValidateRejectsBadGrids) {
  {
    SweepSpec s;
    s.families = {"quantum"};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.protocols = {"teleport"};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.n.clear();
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.p = {1.5};
    s.p_is_degree = false;  // probability > 1
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.lanes = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.lanes = radio::kMaxLanes + 1;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.reps = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.families = {"cliquepath"};
    s.d = {2};  // diameter target below the family's minimum
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
}

// ---------------------------------------------------------------- manifests

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.families = {"gnp", "grid"};
  spec.n = {96, 128};
  spec.p = {8.0};
  spec.p_is_degree = true;
  spec.protocols = {"decay"};
  spec.mediums = {radio::MediumKind::kScalar, radio::MediumKind::kBitslice};
  spec.recoveries = {radio::RecoveryStrategy::kAuto};
  spec.lanes = 16;
  spec.reps = 8;
  spec.seed = 5;
  return spec;
}

TEST(SweepSpec, ManifestRoundTrip) {
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  // 2 families x 1 param x 2 n x 1 protocol x 2 mediums x 1 recovery.
  ASSERT_EQ(jobs.size(), 8u);

  // to_json -> dump -> parse -> from_json -> expand: identical grid.
  const SweepSpec back =
      SweepSpec::from_json(util::Json::parse(spec.to_json().dump(2)));
  const auto jobs_back = expand(back);
  ASSERT_EQ(jobs_back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs_back[i].label(), jobs[i].label());
    EXPECT_EQ(jobs_back[i].seed, jobs[i].seed);
  }
}

TEST(SweepSpec, ManifestRoundTripsFullUint64Seeds) {
  // Seeds and round budgets are uint64; JSON numbers only hold 2^53. The
  // echo switches to strings above that, and the parser takes both forms.
  SweepSpec spec = tiny_spec();
  spec.seed = 18446744073709551615ull;
  spec.max_rounds = (1ull << 60) + 7;
  const SweepSpec back =
      SweepSpec::from_json(util::Json::parse(spec.to_json().dump(2)));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.max_rounds, spec.max_rounds);
  // Numeric forms still work for human-written manifests...
  EXPECT_EQ(SweepSpec::from_json(util::Json::parse(R"({"seed": 17})")).seed,
            17u);
  // ...but a number that silently lost precision is rejected.
  EXPECT_THROW(SweepSpec::from_json(util::Json::parse(R"({"seed": 1e19})")),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_json(util::Json::parse(R"({"seed": -1})")),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_json(util::Json::parse(R"({"seed": 1.5})")),
               std::invalid_argument);
}

TEST(SweepSpec, PointSeedsAreGridShapeIndependent) {
  // A grid point's randomness depends on its coordinates, not on what
  // else is in the grid: adding a family or an n value must not move any
  // existing point's seeds.
  SweepSpec narrow = tiny_spec();
  narrow.families = {"gnp"};
  narrow.n = {96};
  SweepSpec wide = tiny_spec();
  wide.families = {"grid", "gnp"};
  wide.n = {64, 96, 128};
  const auto narrow_jobs = expand(narrow);
  const auto wide_jobs = expand(wide);
  ASSERT_FALSE(narrow_jobs.empty());
  bool found = false;
  for (const Job& job : wide_jobs) {
    if (job.family == "gnp" && job.n == 96 &&
        job.medium == narrow_jobs[0].medium) {
      EXPECT_EQ(job.seed, narrow_jobs[0].seed);
      EXPECT_EQ(job.instance_seed, narrow_jobs[0].instance_seed);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SweepSpec, ManifestFileAndErrorPaths) {
  const std::string path =
      ::testing::TempDir() + "radiocast_manifest_test.json";
  {
    std::ofstream f(path);
    f << R"({"version": 1, "family": ["cliquepath"], "n": "geom:100..400:3",
             "d": [12], "protocol": ["decay"], "medium": ["scalar"],
             "reps": 4, "lanes": 8, "seed": 9})";
  }
  const SweepSpec spec = SweepSpec::from_manifest_file(path);
  EXPECT_EQ(spec.families, std::vector<std::string>{"cliquepath"});
  ASSERT_EQ(spec.n.size(), 3u);
  EXPECT_EQ(spec.n.front(), 100u);
  EXPECT_EQ(spec.n.back(), 400u);
  EXPECT_EQ(spec.reps, 4);
  EXPECT_EQ(expand(spec).size(), 3u);
  std::remove(path.c_str());

  EXPECT_THROW(SweepSpec::from_manifest_file("/nonexistent/manifest.json"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_json(util::Json::parse("[1,2]")),
               std::invalid_argument);
  // Unknown axes and unsupported versions fail loudly.
  EXPECT_THROW(
      SweepSpec::from_json(util::Json::parse(R"({"frobnicate": [1]})")),
      std::invalid_argument);
  EXPECT_THROW(SweepSpec::from_json(util::Json::parse(R"({"version": 2})")),
               std::invalid_argument);
}

// ------------------------------------------------------------- determinism

/// Renders the full deterministic output (CSV text + JSON text, timing
/// off) of the tiny grid under the given thread count.
std::pair<std::string, std::string> render_sweep(int threads) {
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(threads);
  const auto results = Planner().run(jobs, runner);

  util::Table table(long_headers(/*timing=*/false));
  for (const auto& point : results) {
    add_long_row(table, point_meta(point), point.acc, /*timing=*/false);
  }
  return {table.to_csv(), sweep_json(spec, results, /*timing=*/false).dump(2)};
}

TEST(Planner, ByteIdenticalAcrossThreadCounts) {
  const auto [csv1, json1] = render_sweep(1);
  ASSERT_FALSE(csv1.empty());
  for (const int threads : {2, 4}) {
    const auto [csv_n, json_n] = render_sweep(threads);
    EXPECT_EQ(csv1, csv_n) << "CSV differs at --threads=" << threads;
    EXPECT_EQ(json1, json_n) << "JSON differs at --threads=" << threads;
  }
}

TEST(Planner, ExecutionAxesDoNotChangeOutcomes) {
  // Jobs that differ only in medium (scalar vs bitslice) must fold to
  // identical protocol statistics: the execution axes isolate cost, never
  // outcome.
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(1);
  const auto results = Planner().run(jobs, runner);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const auto& a = results[i];      // scalar
    const auto& b = results[i + 1];  // bitslice, same instance point
    ASSERT_EQ(a.job.family, b.job.family);
    ASSERT_EQ(a.job.n, b.job.n);
    EXPECT_NE(a.job.medium, b.job.medium);
    EXPECT_EQ(a.acc.successes(), b.acc.successes());
    EXPECT_EQ(a.acc.rounds().mean(), b.acc.rounds().mean());
    EXPECT_EQ(a.acc.rounds().max(), b.acc.rounds().max());
    EXPECT_EQ(a.acc.deliveries().mean(), b.acc.deliveries().mean());
  }
  // And the protocol genuinely ran: every lane of the tiny grid finishes.
  for (const auto& point : results) {
    EXPECT_EQ(point.acc.trials(), 8u) << point.job.label();
    EXPECT_GT(point.acc.successes(), 0u) << point.job.label();
    EXPECT_GT(point.diameter, 0u);
    EXPECT_GT(point.acc.theory_bound(), 0.0);
  }
}

TEST(Planner, InstanceCacheDoesNotChangeReportBytes) {
  // The cache is a cost optimisation, never an outcome change: with
  // timing off, the rendered CSV and JSON are byte-identical whether
  // every lane batch rebuilt its graph or all of them shared one build.
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(2);
  const auto with_cache = Planner({.cache = true}).run(jobs, runner);
  const auto without = Planner({.cache = false}).run(jobs, runner);

  const auto render = [&](const std::vector<PointResult>& results) {
    util::Table table(long_headers(/*timing=*/false));
    for (const auto& point : results) {
      add_long_row(table, point_meta(point), point.acc, /*timing=*/false,
                   &point.gen);
    }
    return std::make_pair(table.to_csv(),
                          sweep_json(spec, results, /*timing=*/false).dump(2));
  };
  EXPECT_EQ(render(with_cache), render(without));
}

TEST(Planner, InstanceCacheHitCounts) {
  // tiny_spec: 8 jobs over 4 unique instances (gnp/grid x n in {96, 128};
  // the scalar/bitslice medium pairs share instance coordinates), and
  // reps=8 with lanes=16 packs each job into ONE task. So in task order:
  // 4 first-touches (misses), 4 reuses (hits).
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(1);
  const auto results = Planner({.cache = true}).run(jobs, runner);
  std::uint64_t hits = 0, misses = 0;
  for (const auto& point : results) {
    hits += point.gen.cache_hits;
    misses += point.gen.cache_misses;
    // Shared builds report the same generation time on every point.
    EXPECT_GT(point.gen.gen_ns, 0u) << point.job.label();
  }
  EXPECT_EQ(misses, 4u);
  EXPECT_EQ(hits, 4u);

  // Cache off: every task is its own build — all misses, no hits.
  const auto uncached = Planner({.cache = false}).run(jobs, runner);
  for (const auto& point : uncached) {
    EXPECT_EQ(point.gen.cache_hits, 0u);
    EXPECT_EQ(point.gen.cache_misses, 1u) << point.job.label();
  }

  // More batches per job -> the extra batches are hits: reps=8, lanes=2
  // gives 4 tasks per job, 32 tasks over the same 4 instances.
  SweepSpec narrow = tiny_spec();
  narrow.lanes = 2;
  const auto jobs_batched = expand(narrow);
  const auto batched = Planner({.cache = true}).run(jobs_batched, runner);
  std::uint64_t batched_hits = 0, batched_misses = 0;
  for (const auto& point : batched) {
    batched_hits += point.gen.cache_hits;
    batched_misses += point.gen.cache_misses;
  }
  EXPECT_EQ(batched_misses, 4u);
  EXPECT_EQ(batched_hits, 28u);
}

TEST(Planner, NewFamiliesExpandAndRun) {
  SweepSpec spec;
  spec.families = {"ba", "powerlaw"};
  spec.n = {96};
  spec.ba_m = {2, 3};
  spec.exponent = {2.5};
  spec.pl_deg = 8.0;
  spec.protocols = {"decay"};
  spec.mediums = {radio::MediumKind::kScalar};
  spec.recoveries = {radio::RecoveryStrategy::kAuto};
  spec.lanes = 8;
  spec.reps = 8;
  spec.seed = 5;
  const auto jobs = expand(spec);
  // ba sweeps its m axis (2 values), powerlaw its exponent axis (1).
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].param_name, "m");
  EXPECT_EQ(jobs[2].param_name, "exp");
  EXPECT_DOUBLE_EQ(jobs[2].pl_deg, 8.0);

  sim::Runner runner(1);
  const auto results = Planner().run(jobs, runner);
  for (const auto& point : results) {
    EXPECT_EQ(point.n_actual, 96u) << point.job.label();
    EXPECT_GT(point.acc.successes(), 0u) << point.job.label();
    EXPECT_GT(point.diameter, 0u) << point.job.label();
  }

  // The new axes round-trip through the manifest echo like the old ones.
  const SweepSpec back =
      SweepSpec::from_json(util::Json::parse(spec.to_json().dump(2)));
  EXPECT_EQ(back.ba_m, spec.ba_m);
  EXPECT_EQ(back.exponent, spec.exponent);
  EXPECT_DOUBLE_EQ(back.pl_deg, spec.pl_deg);
  const auto jobs_back = expand(back);
  ASSERT_EQ(jobs_back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs_back[i].label(), jobs[i].label());
    EXPECT_EQ(jobs_back[i].instance_seed, jobs[i].instance_seed);
  }
}

TEST(SweepSpec, NewFamilyValidation) {
  {
    SweepSpec s;
    s.families = {"powerlaw"};
    s.exponent = {2.0};  // infinite mean degree
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.families = {"powerlaw"};
    s.pl_deg = 0.0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    SweepSpec s;
    s.families = {"ba"};
    s.ba_m.clear();
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
}

TEST(Planner, ScalarCoreCollapsesExecutionAxes) {
  SweepSpec spec = tiny_spec();
  spec.families = {"grid"};
  spec.n = {64};
  spec.protocols = {"cd", "decay"};
  spec.reps = 2;
  const auto jobs = expand(spec);
  // cd collapses 2 mediums to one scalar job; decay keeps both.
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].protocol, "cd");
  EXPECT_EQ(jobs[0].lane_width, 1);
  EXPECT_EQ(jobs[0].medium, radio::MediumKind::kScalar);
  EXPECT_EQ(jobs[1].protocol, "decay");
  EXPECT_EQ(jobs[2].protocol, "decay");
  // Same instance point -> same replication seeds across protocols.
  EXPECT_EQ(jobs[0].seed, jobs[1].seed);
  EXPECT_EQ(jobs[0].instance_seed, jobs[2].instance_seed);
}

// ------------------------------------------------------------------ report

TEST(Report, JsonCarriesSchemaVersionFirst) {
  const std::string dir = ::testing::TempDir() + "radiocast_report_test";
  std::ostringstream log;
  util::Json payload = util::Json::object();
  payload.set("kind", "probe");
  const std::string path = Report(dir).write_json("probe", payload, log);
  ASSERT_FALSE(path.empty());
  std::ifstream f(path);
  std::stringstream buffer;
  buffer << f.rdbuf();
  const util::Json back = util::Json::parse(buffer.str());
  ASSERT_GE(back.members().size(), 2u);
  EXPECT_EQ(back.members()[0].first, "version");  // stable key order
  EXPECT_DOUBLE_EQ(back.members()[0].second.as_number(), kSchemaVersion);
  EXPECT_EQ(back.find("kind")->as_string(), "probe");
  EXPECT_NE(log.str().find("[json] "), std::string::npos);
  std::remove(path.c_str());

  // Disabled sink: no file, no log line.
  std::ostringstream quiet;
  EXPECT_EQ(Report("").write_json("probe", payload, quiet), "");
  EXPECT_TRUE(quiet.str().empty());
}

// Schema v3: timed points must carry the sparse-list phase counters AND
// the work-stealing pool counters (zero on other backends, but always
// present, so consumers never probe for optional keys); untimed points
// stay timing-free.
TEST(Report, TimingBlockCarriesSparseAndPoolCounters) {
  EXPECT_EQ(kSchemaVersion, 3);
  PointMeta meta;
  meta.family = "gnp";
  Accumulator acc;
  radio::PhaseTimers phases;
  phases.enqueue_ns = 7;
  phases.drain_ns = 9;
  phases.active_listeners = 11;
  phases.steal_attempts = 13;
  phases.steals = 5;
  phases.idle_ns = 17;
  acc.add_phases(phases);
  const util::Json j = point_json(meta, acc, /*timing=*/true);
  const util::Json* t = j.find("timing");
  ASSERT_NE(t, nullptr);
  EXPECT_DOUBLE_EQ(t->find("enqueue_ns")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(t->find("drain_ns")->as_number(), 9.0);
  EXPECT_DOUBLE_EQ(t->find("active_listeners")->as_number(), 11.0);
  EXPECT_DOUBLE_EQ(t->find("steal_attempts")->as_number(), 13.0);
  EXPECT_DOUBLE_EQ(t->find("steals")->as_number(), 5.0);
  EXPECT_DOUBLE_EQ(t->find("idle_ns")->as_number(), 17.0);
  EXPECT_EQ(point_json(meta, acc, /*timing=*/false).find("timing"), nullptr);
}

TEST(Report, DriverFallbackRespectsScenarioOwnedFiles) {
  const std::string dir = ::testing::TempDir() + "radiocast_ctx_json_test";
  util::Cli cli(0, nullptr);
  sim::Runner runner(1);
  std::ostringstream log;

  // A scenario that records nothing still gets its wall-time trajectory
  // file from the driver...
  sim::ScenarioContext plain(cli, runner);
  plain.out = &log;
  plain.out_dir = dir;
  const std::string path = plain.write_json("no-records", 12.5);
  ASSERT_FALSE(path.empty());
  std::ifstream f(path);
  std::stringstream buffer;
  buffer << f.rdbuf();
  const util::Json back = util::Json::parse(buffer.str());
  EXPECT_DOUBLE_EQ(back.find("wall_ms_total")->as_number(), 12.5);
  EXPECT_EQ(back.find("replications")->size(), 0u);
  std::remove(path.c_str());

  // ...but a name the scenario emitted itself is left alone.
  sim::ScenarioContext owner(cli, runner);
  owner.out = &log;
  owner.out_dir = dir;
  util::Json doc = util::Json::object();
  doc.set("kind", "sweep");
  ASSERT_FALSE(owner.emit_json("mine", std::move(doc)).empty());
  EXPECT_EQ(owner.write_json("mine", 1.0), "");
  std::ifstream owned((std::filesystem::path(dir) / "mine.json").string());
  std::stringstream kept;
  kept << owned.rdbuf();
  EXPECT_EQ(util::Json::parse(kept.str()).find("kind")->as_string(), "sweep");
}

}  // namespace
}  // namespace radiocast::exp
