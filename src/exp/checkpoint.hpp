// Crash-safe sweep execution: the checkpoint journal and graceful
// shutdown.
//
// The Planner's determinism contract (coordinate-derived seeds,
// task-order fold) means a (job, lane-batch) task's outcome is a pure
// function of the spec — so a sweep that died can finish later, on any
// thread count, and emit byte-identical reports. The Checkpoint journal
// makes that operational: one fsynced record per completed task, so
// after SIGKILL/OOM/CI-timeout `sweep --resume=<dir>` replays the
// journal, skips the recorded tasks, and runs only the remainder.
//
// Journal format (<out_dir>/sweep.journal, line-oriented, append-only):
//
//   H <crc> {"kind":"sweep-journal","version":3,
//            "fingerprint":"<16-hex spec digest>","tasks":<count>}
//   R <crc> {"task":<idx>,"n":...,"diameter":...,"gen_ns":...,
//            "wall_ms":...,"phases":[...10 counters...],
//            "lanes":[[success,rounds,informed,deliveries,
//                      transmissions],...]}
//
// Each <crc> is the fnv1a-64 of the JSON text on that line, in 16 hex
// digits. Every append is fsynced before the task counts as done, so a
// crash can tear at most the line being written: replay drops an
// unterminated tail and tolerates a corrupt FINAL line (both are what a
// real torn append leaves), but a corrupt interior line — which fsync
// ordering makes impossible without external damage — is an error.
// The fingerprint pins the journal to the exact SweepSpec, so resuming
// with a different grid is refused instead of silently mixing outcomes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/spec.hpp"
#include "radio/medium.hpp"
#include "util/fsio.hpp"

namespace radiocast::exp {

/// Thrown when a sweep drains after SIGINT/SIGTERM with tasks still
/// pending: the driver maps it to kResumableExit (75) so wrappers can
/// tell "interrupted but resumable" from real failures.
class ResumableInterrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Installs SIGINT/SIGTERM handlers that request a graceful drain (the
/// Planner stops STARTING tasks; in-flight ones finish and journal).
/// One-shot per signal: a second SIGINT kills the process the default
/// way, so a wedged sweep can still be stopped.
void install_signal_handlers();
/// True once a drain was requested (signal or request_shutdown()).
bool shutdown_requested();
/// Programmatic drain request — what the sigint@ fault knob and the
/// signal handlers call.
void request_shutdown();
/// Re-arms after a drain (tests run many sweeps in one process).
void clear_shutdown();

/// One replication's outcome inside a task (absent metrics = NaN,
/// mirroring Accumulator::kAbsent).
struct LaneOutcome {
  bool success = false;
  double rounds = 0.0;
  double informed = Accumulator::kAbsent;
  double deliveries = Accumulator::kAbsent;
  double transmissions = Accumulator::kAbsent;
};

/// One executed (job, lane-batch) task — exactly what the journal
/// persists and the Planner folds.
struct TaskOutcome {
  std::vector<LaneOutcome> lanes;
  radio::PhaseTimers phases;
  double wall_ms = 0.0;
  /// Time this task spent generating its own instance (0 when it ran on
  /// a cached one).
  std::uint64_t gen_ns = 0;
  std::uint32_t n_actual = 0;
  std::uint32_t diameter = 0;
  /// Poisoned task: every retry failed. The task contributes nothing to
  /// the fold; `error` records why (surfaced in the report's quarantine
  /// list instead of hanging or killing the grid).
  bool quarantined = false;
  std::string error;
};

/// 16-hex digest of spec.to_json() — the journal/spec compatibility key.
std::string spec_fingerprint(const SweepSpec& spec);

/// The append-only task journal. All methods are thread-safe; record()
/// is called concurrently from Planner workers.
class Checkpoint {
 public:
  static std::string journal_path(const std::string& dir);

  /// Starts a FRESH journal at <dir>/sweep.journal (truncating any
  /// previous one) with a header pinning `spec` and `task_count`.
  /// Throws std::runtime_error on I/O failure.
  static std::unique_ptr<Checkpoint> start(const std::string& dir,
                                           const SweepSpec& spec,
                                           std::size_t task_count);

  /// Opens an EXISTING journal for resume: replays its records, then
  /// reopens it for appending. Throws std::runtime_error when the
  /// journal is missing, its header does not match `spec`/`task_count`
  /// (stale-spec rejection), or an interior record is corrupt.
  static std::unique_ptr<Checkpoint> resume(const std::string& dir,
                                            const SweepSpec& spec,
                                            std::size_t task_count);

  /// Appends + fsyncs one completed task. Honors the fault harness:
  /// abort@ tears this record and dies, kill@ dies right after the
  /// fsync. Throws std::runtime_error when the append fails (journal
  /// durability lost — the sweep must not pretend the task is safe).
  void record(std::size_t task, const TaskOutcome& outcome);

  /// True when `task` was replayed from the journal (resume path).
  bool completed(std::size_t task) const;
  std::size_t completed_count() const;
  /// The replayed outcome for a completed task (nullptr otherwise).
  const TaskOutcome* outcome(std::size_t task) const;

  /// Deletes the journal file — called after reports are written, so a
  /// finished sweep leaves no stale journal for a later --resume.
  void remove_journal();

 private:
  Checkpoint() = default;

  std::string path_;
  util::AppendFile file_;
  mutable std::mutex mu_;
  std::vector<std::optional<TaskOutcome>> replayed_;
};

}  // namespace radiocast::exp
