// Grid expansion and deterministic execution for the sweep subsystem.
//
// expand() turns a SweepSpec into a flat, deterministic job list — one Job
// per grid point, enumerated family -> family-parameter -> n -> protocol
// -> medium -> recovery. Replication seeds are derived from the INSTANCE
// coordinates only (family, parameter, n — not medium or recovery), so
// two jobs that differ only in execution axes run byte-identical
// protocol replications: the medium/recovery columns of a sweep isolate
// execution cost, never outcome. Scalar protocol cores (cd, hw) collapse
// the execution axes entirely (one job per instance point, medium =
// scalar).
//
// Planner::run() flattens jobs into (job, lane-batch) tasks, maps them
// over the sim::Runner pool, and folds the outcomes into per-job
// Accumulators strictly in task order — the sweep's output is
// byte-identical for any --threads, the same contract Runner::replicate
// gives single scenarios.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/spec.hpp"
#include "radio/medium.hpp"
#include "sim/instances.hpp"

namespace radiocast::sim {
class Runner;
}

namespace radiocast::obs {
class ProgressMeter;
}

namespace radiocast::exp {

class Checkpoint;

/// One grid point, fully determined by the spec: running a Job twice (any
/// thread count, any machine) yields identical protocol outcomes.
struct Job {
  int index = 0;
  std::string family;
  /// Family-parameter display name ("p", "deg", "radius", "d"; "" when
  /// the family is parameterless) and value.
  std::string param_name;
  double param = 0.0;
  std::uint32_t n = 0;
  std::string protocol;  // kProtocolNames entry
  radio::MediumKind medium = radio::MediumKind::kScalar;
  radio::RecoveryStrategy recovery = radio::RecoveryStrategy::kAuto;
  /// Lanes per batch (1 for scalar cores).
  int lane_width = 1;
  int reps = 1;
  int sources = 1;
  /// 0 = auto budget (resolved against the instance's theory bound).
  std::uint64_t max_rounds = 0;
  /// Base replication seed; replication r uses mix_seed(seed, r). Shared
  /// across execution axes (see file comment).
  std::uint64_t seed = 0;
  /// Seed the graph instance is generated from (shared likewise).
  std::uint64_t instance_seed = 0;
  /// powerlaw only: target average degree (the spec's pl-deg knob).
  double pl_deg = 12.0;

  /// "gnp[deg=12]/n=1024/decay/bitslice/auto" — the human job id used by
  /// --dry-run listings and error messages.
  std::string label() const;
};

/// Expands the grid (validates the spec first). Deterministic: the same
/// spec always yields the same jobs in the same order.
std::vector<Job> expand(const SweepSpec& spec);

/// Instance-generation cost/caching statistics for one grid point. All of
/// it is wall-clock-derived or scheduling-describing metadata, so reports
/// only surface it behind the timing flag (`--timing=off` byte-stability).
struct GenStats {
  /// Wall time spent generating this point's instance ONCE. Points that
  /// share a cached instance report the same build's time.
  std::uint64_t gen_ns = 0;
  /// How many of this point's lane-batch tasks reused the cached instance
  /// vs triggered (or, cache off, repeated) a build.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// One executed grid point: the job, the instance it materialised
/// (n_actual can differ from job.n for the grid family; diameter is
/// measured), and the folded replication statistics with the theory
/// overlay already evaluated.
struct PointResult {
  Job job;
  std::uint32_t n_actual = 0;
  std::uint32_t diameter = 0;
  GenStats gen;
  Accumulator acc;
};

/// Builds the graph instance a job runs on — deterministic from the job
/// alone (and independent of gen_threads), so every lane batch of a job
/// sees the same topology.
sim::Instance build_instance(const Job& job, int gen_threads = 0);

/// The core/theory bound overlaid at a grid point: bound_bgi for decay,
/// bound_compete for compete, bound_crkp for cr, bound_cd for cd, bound_hw
/// for hw.
double theory_bound(const std::string& protocol, std::uint32_t n,
                    std::uint32_t diameter, int sources);

/// One (job, lane-batch) execution unit. A task's index in the
/// flatten_tasks() vector IS its durable identity — the checkpoint
/// journal records task indices, so the flattening must stay a pure
/// function of the job list.
struct TaskRef {
  int job = 0;
  int first_rep = 0;
  int count = 0;
};

/// Flattens jobs into lane-batch tasks in job order (deterministic; the
/// task list every Planner entry point and the journal share).
std::vector<TaskRef> flatten_tasks(std::span<const Job> jobs);

/// A poisoned task: every attempt failed, so the grid recorded the
/// failing coordinate and moved on instead of dying or hanging.
struct QuarantinedTask {
  std::size_t task = 0;
  std::string job_label;
  int first_rep = 0;
  int count = 0;
  std::string error;
};

/// What a durable run produced beyond the points themselves.
struct RunOutcome {
  std::vector<PointResult> points;
  std::vector<QuarantinedTask> quarantined;
  std::size_t tasks_total = 0;
  /// Tasks replayed from the checkpoint journal instead of re-executed.
  std::size_t tasks_replayed = 0;
  std::size_t tasks_run = 0;
  /// Graceful drain: a shutdown request stopped the run before every
  /// task was done. Completed work is journaled; reports must NOT be
  /// written (they would be partial).
  bool interrupted = false;
};

class Planner {
 public:
  struct Options {
    /// Generation pool width per instance build (pargen::resolve_threads
    /// semantics; 0 = env/auto). Never affects output bytes.
    int gen_threads = 0;
    /// When true (default), jobs sharing an instance seed — medium and
    /// recovery execution axes, and every replication batch of a job —
    /// reuse ONE graph build held via shared_ptr. Off exists for the
    /// cache-correctness tests and A/B cost measurements; outcomes (and,
    /// with timing off, report bytes) are identical either way.
    bool cache = true;
    /// Per-task watchdog: a task attempt exceeding this wall budget is
    /// abandoned and treated as a transient failure (retried, then
    /// quarantined). 0 disables the watchdog.
    int task_timeout_ms = 0;
    /// Transient-failure retries per task before quarantine, with
    /// exponential backoff. Config errors (std::invalid_argument /
    /// std::logic_error) are never retried — they rethrow immediately.
    int retries = 0;
    /// Live heartbeat sink (nullable). run_durable ticks it once per task
    /// — replayed tasks up front, live tasks as they complete. Purely
    /// observational: never touches outcomes or report bytes.
    obs::ProgressMeter* progress = nullptr;
  };

  Planner() = default;
  explicit Planner(Options options) : options_(options) {}

  /// Runs every job's replications over the runner pool; results are
  /// byte-identical for any runner thread count. Throws what the protocol
  /// cores throw (first task error wins, like Runner::map — quarantined
  /// tasks rethrow their recorded error here, and a graceful-shutdown
  /// drain rethrows as ResumableInterrupt).
  std::vector<PointResult> run(std::span<const Job> jobs,
                               sim::Runner& runner) const;

  /// The crash-safe entry point behind `sweep`: honors a shutdown
  /// request between tasks (drains in-flight work, leaves the rest
  /// pending), journals every completed task into `checkpoint` (nullable
  /// = no journaling), skips tasks the journal already holds, applies
  /// the watchdog/retry/quarantine policy, and consults the process
  /// fault injector at every task boundary. The folded points are
  /// byte-identical to an uninterrupted run whenever
  /// outcome.interrupted is false.
  RunOutcome run_durable(std::span<const Job> jobs, sim::Runner& runner,
                         Checkpoint* checkpoint) const;

 private:
  Options options_;
};

}  // namespace radiocast::exp
