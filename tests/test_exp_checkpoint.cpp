// The crash-safety subsystem's contracts:
//   * FaultSpec — the RADIOCAST_FAULT grammar parses strictly.
//   * Checkpoint — journal round trip (exact doubles, full-range uint64
//     counters, NaN metrics), torn/corrupt-tail tolerance, interior
//     corruption and stale-spec rejection.
//   * Planner::run_durable — THE resume promise: a sweep killed at ANY
//     task boundary and resumed produces byte-identical CSV + JSON
//     (timing off) to an uninterrupted run; graceful drain leaves a
//     resumable journal; watchdog + retry absorb transient faults and
//     quarantine poisoned tasks.
//   * Report — atomic writes that THROW on I/O failure instead of
//     logging and returning "".
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/fault.hpp"
#include "exp/planner.hpp"
#include "exp/report.hpp"
#include "exp/spec.hpp"
#include "sim/runner.hpp"
#include "util/fsio.hpp"
#include "util/table.hpp"

namespace radiocast::exp {
namespace {

/// Every test leaves the process-global harness disarmed: faults off,
/// no pending shutdown, no io hook. Tests in one binary share them.
struct HarnessGuard {
  HarnessGuard() { reset(); }
  ~HarnessGuard() { reset(); }
  static void reset() {
    FaultInjector::global().configure(FaultSpec{});
    FaultInjector::global().cancel_hangs();
    clear_shutdown();
    util::set_io_fault_hook(nullptr);
  }
};

/// The sweep-test grid: 8 jobs (gnp/grid x n x scalar/bitslice), one
/// lane-batch task per job -> 8 tasks.
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

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The deterministic report bytes (timing off) for a run's points.
std::pair<std::string, std::string> render(
    const SweepSpec& spec, const RunOutcome& outcome) {
  util::Table table(long_headers(/*timing=*/false));
  for (const auto& point : outcome.points) {
    add_long_row(table, point_meta(point), point.acc, /*timing=*/false);
  }
  return {table.to_csv(),
          sweep_json(spec, outcome.points, /*timing=*/false,
                     &outcome.quarantined)
              .dump(2)};
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
}

/// One framed journal line, "<tag> <fnv1a-64 of json, 16 hex> <json>\n" —
/// the checkpoint's own framing, rebuilt here so a test can forge lines
/// that pass the checksum.
std::string journal_line(char tag, const std::string& json) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : json) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char crc[17];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(1, tag) + " " + crc + " " + json + "\n";
}

std::vector<std::string> journal_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

// --------------------------------------------------------------- FaultSpec

TEST(FaultSpec, ParsesTheWholeGrammar) {
  EXPECT_EQ(FaultSpec::parse("kill@3").kind, FaultSpec::Kind::kKill);
  EXPECT_EQ(FaultSpec::parse("kill@3").index, 3u);
  EXPECT_EQ(FaultSpec::parse("kill@0").index, 0u);
  EXPECT_EQ(FaultSpec::parse("abort@2").kind, FaultSpec::Kind::kAbort);
  EXPECT_EQ(FaultSpec::parse("io-fail@7").kind, FaultSpec::Kind::kIoFail);
  EXPECT_EQ(FaultSpec::parse("io-fail@7").index, 7u);
  const FaultSpec tthrow = FaultSpec::parse("task-throw@4x3");
  EXPECT_EQ(tthrow.kind, FaultSpec::Kind::kTaskThrow);
  EXPECT_EQ(tthrow.index, 4u);
  EXPECT_EQ(tthrow.times, 3);
  EXPECT_EQ(FaultSpec::parse("task-throw@4").times, 1);
  EXPECT_EQ(FaultSpec::parse("task-hang@1").kind, FaultSpec::Kind::kTaskHang);
  EXPECT_EQ(FaultSpec::parse("sigint@5").kind, FaultSpec::Kind::kSigint);
}

TEST(FaultSpec, RejectsJunkStrictly) {
  for (const char* bad :
       {"", "kill", "kill@", "@3", "kill@x", "kill@-1", "kill@1.5",
        "frob@1", "abort@0", "io-fail@0", "io-fail@junk", "task-throw@1x0",
        "task-throw@1x", "kill@1 ", "KILL@1"}) {
    EXPECT_THROW((void)FaultSpec::parse(bad), std::invalid_argument) << bad;
  }
}

// -------------------------------------------------------------- Checkpoint

TEST(Checkpoint, JournalRoundTripsExactValues) {
  HarnessGuard guard;
  const std::string dir = fresh_dir("radiocast_cp_roundtrip");
  const SweepSpec spec = tiny_spec();

  TaskOutcome out;
  out.n_actual = 96;
  out.diameter = 7;
  out.gen_ns = (1ull << 60) + 3;  // beyond 2^53: must survive exactly
  out.wall_ms = 1.0 / 3.0;        // needs max_digits10 round trip
  out.phases.traverse_ns = (1ull << 55) + 1;
  out.phases.constfold_rounds = 42;
  LaneOutcome lane;
  lane.success = true;
  lane.rounds = 17.0;
  lane.informed = 96.0;
  // deliveries/transmissions stay NaN (absent) — journaled as null.
  out.lanes.push_back(lane);

  TaskOutcome poisoned;
  poisoned.quarantined = true;
  poisoned.error = "injected \"quoted\" failure\nwith newline";

  {
    auto cp = Checkpoint::start(dir, spec, 8);
    cp->record(2, out);
    cp->record(5, poisoned);
  }

  auto cp = Checkpoint::resume(dir, spec, 8);
  EXPECT_EQ(cp->completed_count(), 2u);
  EXPECT_TRUE(cp->completed(2));
  EXPECT_TRUE(cp->completed(5));
  EXPECT_FALSE(cp->completed(0));
  const TaskOutcome* back = cp->outcome(2);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->n_actual, 96u);
  EXPECT_EQ(back->diameter, 7u);
  EXPECT_EQ(back->gen_ns, (1ull << 60) + 3);
  EXPECT_EQ(back->wall_ms, 1.0 / 3.0);  // bit-exact, not just near
  EXPECT_EQ(back->phases.traverse_ns, (1ull << 55) + 1);
  EXPECT_EQ(back->phases.constfold_rounds, 42u);
  ASSERT_EQ(back->lanes.size(), 1u);
  EXPECT_TRUE(back->lanes[0].success);
  EXPECT_EQ(back->lanes[0].rounds, 17.0);
  EXPECT_TRUE(std::isnan(back->lanes[0].deliveries));
  EXPECT_TRUE(std::isnan(back->lanes[0].transmissions));
  const TaskOutcome* q = cp->outcome(5);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->quarantined);
  EXPECT_EQ(q->error, poisoned.error);

  cp->remove_journal();
  EXPECT_FALSE(std::filesystem::exists(Checkpoint::journal_path(dir)));
}

TEST(Checkpoint, ToleratesTornTailRejectsInteriorCorruption) {
  HarnessGuard guard;
  const std::string dir = fresh_dir("radiocast_cp_corrupt");
  const SweepSpec spec = tiny_spec();
  TaskOutcome out;
  out.n_actual = 96;
  {
    auto cp = Checkpoint::start(dir, spec, 8);
    cp->record(0, out);
    cp->record(1, out);
  }
  const std::string path = Checkpoint::journal_path(dir);
  const std::string text = read_file(path);

  // Unterminated tail (crash mid-append): dropped, earlier records kept.
  write_file(path, text.substr(0, text.size() - 10));
  EXPECT_EQ(Checkpoint::resume(dir, spec, 8)->completed_count(), 1u);

  // Corrupt FINAL complete line (torn write that still got its newline):
  // dropped likewise.
  {
    std::string damaged = text;
    damaged[damaged.size() - 20] ^= 0x20;
    write_file(path, damaged);
    auto cp = Checkpoint::resume(dir, spec, 8);
    EXPECT_EQ(cp->completed_count(), 1u);
    EXPECT_TRUE(cp->completed(0));
    EXPECT_FALSE(cp->completed(1));
  }

  // Corrupt INTERIOR line: fsync ordering makes this impossible in a
  // real crash, so it is external damage — refuse loudly.
  {
    const auto lines = journal_lines(text);
    ASSERT_EQ(lines.size(), 3u);
    std::string damaged_mid = lines[0] + "\n";
    std::string bad_record = lines[1];
    bad_record[bad_record.size() - 5] ^= 0x20;
    damaged_mid += bad_record + "\n" + lines[2] + "\n";
    write_file(path, damaged_mid);
    EXPECT_THROW((void)Checkpoint::resume(dir, spec, 8), std::runtime_error);
  }

  // Missing journal and empty journal are refusals, not empty resumes.
  std::filesystem::remove(path);
  EXPECT_THROW((void)Checkpoint::resume(dir, spec, 8), std::runtime_error);
  write_file(path, "");
  EXPECT_THROW((void)Checkpoint::resume(dir, spec, 8), std::runtime_error);
}

TEST(Checkpoint, RejectsStaleSpecAndWrongTaskCount) {
  HarnessGuard guard;
  const std::string dir = fresh_dir("radiocast_cp_stale");
  const SweepSpec spec = tiny_spec();
  { auto cp = Checkpoint::start(dir, spec, 8); }

  SweepSpec other = tiny_spec();
  other.reps = 16;  // a different grid entirely
  EXPECT_THROW((void)Checkpoint::resume(dir, other, 8), std::runtime_error);
  EXPECT_THROW((void)Checkpoint::resume(dir, spec, 9), std::runtime_error);
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));
  EXPECT_NO_THROW((void)Checkpoint::resume(dir, spec, 8));

  // A version-2 journal of this very spec (13 phase counters per record,
  // three more than v3) must be refused by its header, never misread.
  write_file(Checkpoint::journal_path(dir),
             journal_line('H', "{\"kind\":\"sweep-journal\",\"version\":2,"
                               "\"fingerprint\":\"" +
                                   spec_fingerprint(spec) +
                                   "\",\"tasks\":8}") +
                 journal_line('R', "{\"task\":0,\"n\":96,\"diameter\":7,"
                                   "\"gen_ns\":1,\"wall_ms\":1.5,\"phases\":"
                                   "[1,2,3,0,0,4,5,5,0,0,6,7,8],\"lanes\":"
                                   "[[true,17,96,null,null]]}"));
  try {
    (void)Checkpoint::resume(dir, spec, 8);
    ADD_FAILURE() << "resumed a version-2 journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a version-3 sweep journal"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, FingerprintMismatchNamesBothCausesAndFingerprints) {
  HarnessGuard guard;
  const std::string dir = fresh_dir("radiocast_cp_fingerprint");
  const SweepSpec spec = tiny_spec();
  // The header a build that renders this spec differently would write:
  // the same spec and task count under another fingerprint.
  const std::string foreign = "0123456789abcdef";
  ASSERT_NE(spec_fingerprint(spec), foreign);
  write_file(Checkpoint::journal_path(dir),
             journal_line('H', "{\"kind\":\"sweep-journal\",\"version\":3,"
                               "\"fingerprint\":\"" +
                                   foreign + "\",\"tasks\":8}"));
  try {
    (void)Checkpoint::resume(dir, spec, 8);
    ADD_FAILURE() << "resumed a journal with a foreign fingerprint";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(foreign), std::string::npos) << what;
    EXPECT_NE(what.find(spec_fingerprint(spec)), std::string::npos) << what;
    EXPECT_NE(what.find("the spec changed"), std::string::npos) << what;
    EXPECT_NE(what.find("renders the spec differently"), std::string::npos)
        << what;
  }
}

// ------------------------------------------------------- resume byte-identity

/// THE tentpole assertion: for EVERY task boundary k, a run that died
/// right after journaling task k (simulated by truncating a 1-thread
/// run's journal after k+1 records — record order == task order there)
/// resumes to byte-identical reports.
TEST(Planner, ResumeIsByteIdenticalAtEveryTaskBoundary) {
  HarnessGuard guard;
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  const std::size_t task_count = flatten_tasks(jobs).size();
  ASSERT_EQ(task_count, 8u);

  // Uninterrupted journaled run on 1 thread: the reference bytes AND the
  // task-ordered journal the crash simulations truncate.
  const std::string clean_dir = fresh_dir("radiocast_resume_clean");
  std::string clean_journal;
  std::pair<std::string, std::string> clean_bytes;
  {
    auto cp = Checkpoint::start(clean_dir, spec, task_count);
    sim::Runner runner(1);
    const RunOutcome outcome = Planner().run_durable(jobs, runner, cp.get());
    ASSERT_FALSE(outcome.interrupted);
    ASSERT_TRUE(outcome.quarantined.empty());
    EXPECT_EQ(outcome.tasks_run, task_count);
    clean_bytes = render(spec, outcome);
    clean_journal = read_file(Checkpoint::journal_path(clean_dir));
  }
  const auto lines = journal_lines(clean_journal);
  ASSERT_EQ(lines.size(), task_count + 1);  // header + one record per task

  const std::string dir = fresh_dir("radiocast_resume_kill");
  for (std::size_t k = 0; k < task_count; ++k) {
    // Die right after task k's record: journal = header + records 0..k.
    std::string truncated;
    for (std::size_t i = 0; i <= k + 1; ++i) truncated += lines[i] + "\n";
    write_file(Checkpoint::journal_path(dir), truncated);

    auto cp = Checkpoint::resume(dir, spec, task_count);
    EXPECT_EQ(cp->completed_count(), k + 1) << "kill@" << k;
    sim::Runner runner(2);  // resume on a different thread count, too
    const RunOutcome outcome = Planner().run_durable(jobs, runner, cp.get());
    ASSERT_FALSE(outcome.interrupted);
    EXPECT_EQ(outcome.tasks_replayed, k + 1) << "kill@" << k;
    EXPECT_EQ(outcome.tasks_run, task_count - k - 1) << "kill@" << k;
    const auto bytes = render(spec, outcome);
    EXPECT_EQ(clean_bytes.first, bytes.first) << "CSV differs for kill@" << k;
    EXPECT_EQ(clean_bytes.second, bytes.second)
        << "JSON differs for kill@" << k;
  }
}

TEST(Planner, GracefulDrainLeavesResumableJournal) {
  HarnessGuard guard;
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  const std::size_t task_count = flatten_tasks(jobs).size();

  const std::string clean_dir = fresh_dir("radiocast_drain_ref");
  std::pair<std::string, std::string> clean_bytes;
  {
    auto cp = Checkpoint::start(clean_dir, spec, task_count);
    sim::Runner runner(1);
    clean_bytes = render(spec, Planner().run_durable(jobs, runner, cp.get()));
  }

  const std::string dir = fresh_dir("radiocast_drain");
  {
    // sigint@2: task 2 requests shutdown while running; it (and anything
    // in flight) still finishes and journals, later tasks never start.
    FaultInjector::global().configure(FaultSpec::parse("sigint@2"));
    auto cp = Checkpoint::start(dir, spec, task_count);
    sim::Runner runner(1);
    const RunOutcome outcome = Planner().run_durable(jobs, runner, cp.get());
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_TRUE(shutdown_requested());
    EXPECT_EQ(outcome.tasks_run, 3u);  // tasks 0, 1, 2
  }
  HarnessGuard::reset();
  {
    auto cp = Checkpoint::resume(dir, spec, task_count);
    EXPECT_EQ(cp->completed_count(), 3u);
    sim::Runner runner(2);
    const RunOutcome outcome = Planner().run_durable(jobs, runner, cp.get());
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_EQ(render(spec, outcome), clean_bytes);
  }

  // A drain requested BEFORE the run starts no task at all.
  {
    request_shutdown();
    sim::Runner runner(1);
    const RunOutcome outcome = Planner().run_durable(jobs, runner, nullptr);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_EQ(outcome.tasks_run, 0u);
    clear_shutdown();
  }
}

// --------------------------------------------------- watchdog / retry / etc.

TEST(Planner, TransientFaultIsRetriedInvisibly) {
  HarnessGuard guard;
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(1);
  const auto clean =
      render(spec, Planner().run_durable(jobs, runner, nullptr));

  // Task 3 fails its first attempt; one retry absorbs it byte-invisibly.
  FaultInjector::global().configure(FaultSpec::parse("task-throw@3"));
  const RunOutcome outcome =
      Planner({.retries = 1}).run_durable(jobs, runner, nullptr);
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_EQ(render(spec, outcome), clean);
}

TEST(Planner, PoisonedTaskIsQuarantinedNotFatal) {
  HarnessGuard guard;
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(1);

  // Task 3 fails twice but only one retry is allowed: quarantine.
  FaultInjector::global().configure(FaultSpec::parse("task-throw@3x2"));
  const RunOutcome outcome =
      Planner({.retries = 1}).run_durable(jobs, runner, nullptr);
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined[0].task, 3u);
  EXPECT_FALSE(outcome.quarantined[0].error.empty());
  // The rest of the grid still folded (tiny grid: 1 task per job).
  EXPECT_EQ(outcome.points[3].acc.trials(), 0u);
  EXPECT_GT(outcome.points[4].acc.trials(), 0u);
  // The report document says so.
  const util::Json doc =
      sweep_json(spec, outcome.points, false, &outcome.quarantined);
  ASSERT_NE(doc.find("quarantined"), nullptr);
  EXPECT_EQ(doc.find("quarantined")->items().size(), 1u);

  // run() (the strict legacy entry point) rethrows instead of thinning.
  EXPECT_THROW((void)Planner().run(jobs, runner), std::runtime_error);
  HarnessGuard::reset();

  // Config errors are never quarantined — they rethrow immediately.
  auto broken = jobs;
  broken[0].family = "no-such-family";
  EXPECT_THROW(
      (void)Planner({.retries = 3}).run_durable(broken, runner, nullptr),
      std::invalid_argument);
}

TEST(Planner, WatchdogTimesOutHungTaskThenRetrySucceeds) {
  HarnessGuard guard;
  const SweepSpec spec = tiny_spec();
  const auto jobs = expand(spec);
  sim::Runner runner(1);
  const auto clean =
      render(spec, Planner().run_durable(jobs, runner, nullptr));

  // Task 0's first attempt hangs forever; the watchdog abandons it after
  // 100ms and the retry (attempt 1 >= times 1: the hang is spent) runs
  // clean. Output is byte-identical — the timeout never leaks.
  FaultInjector::global().configure(FaultSpec::parse("task-hang@0"));
  const RunOutcome outcome =
      Planner({.task_timeout_ms = 100, .retries = 1})
          .run_durable(jobs, runner, nullptr);
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_EQ(render(spec, outcome), clean);

  // Without a retry budget the hang quarantines with the watchdog error.
  FaultInjector::global().configure(FaultSpec::parse("task-hang@0"));
  const RunOutcome poisoned =
      Planner({.task_timeout_ms = 100}).run_durable(jobs, runner, nullptr);
  ASSERT_EQ(poisoned.quarantined.size(), 1u);
  EXPECT_NE(poisoned.quarantined[0].error.find("watchdog"),
            std::string::npos);

  // Release the abandoned hangers before their cv outlives the test body.
  FaultInjector::global().cancel_hangs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// ------------------------------------------------------------------ report

TEST(Report, WritesAtomicallyAndThrowsOnIoFailure) {
  HarnessGuard guard;
  const std::string dir = fresh_dir("radiocast_report_atomic");
  std::ostringstream log;
  util::Table table({"a", "b"});
  table.row().add(1).add(2);

  const Report report(dir);
  EXPECT_TRUE(report.enabled());
  EXPECT_EQ(report.out_dir(), dir);
  const std::string path = report.write_csv("t", table, log);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(read_file(path), table.to_csv());
  // No .tmp residue from the atomic rename.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Injected I/O failure: the write THROWS (drivers exit nonzero) and
  // the previous file survives untouched.
  util::set_io_fault_hook([] { return true; });
  util::Table table2({"a", "b"});
  table2.row().add(3).add(4);
  EXPECT_THROW((void)report.write_csv("t", table2, log), std::runtime_error);
  util::Json payload = util::Json::object();
  payload.set("kind", "probe");
  EXPECT_THROW((void)report.write_json("t", std::move(payload), log),
               std::runtime_error);
  util::set_io_fault_hook(nullptr);
  EXPECT_EQ(read_file(path), table.to_csv());

  // Disabled sink: explicit signal, no filesystem contact.
  const Report disabled{""};
  EXPECT_FALSE(disabled.enabled());
  EXPECT_TRUE(disabled.out_dir().empty());
  EXPECT_EQ(disabled.write_csv("t", table, log), "");
}

}  // namespace
}  // namespace radiocast::exp
