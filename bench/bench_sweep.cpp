// `radiocast_bench sweep` — declarative experiment grids.
//
// Expands a SweepSpec (CLI axes and/or --manifest=FILE) into a job grid —
// family x family-parameter x n x protocol x medium x recovery — packs
// each job's Monte-Carlo replications into lane batches through the
// BatchNetwork seam, schedules every (job, batch) task over the --threads
// pool, and emits one long-format CSV plus one schema-versioned JSON
// (bench_out/sweep.{csv,json}) with Welford round statistics, Wilson
// success intervals, per-phase medium rollups, and the core/theory bound
// overlay at every grid point.
//
// Determinism: replication seeds depend only on the instance coordinates,
// tasks are folded in grid order, and `--timing=off` removes the only
// non-deterministic fields (wall/phase times) — the emitted files are
// then byte-identical for any --threads value (pinned by
// tests/test_exp_sweep.cpp and the CI sweep smoke job).
//
// Crash safety: whenever reports are enabled, every completed (job,
// lane-batch) task is journaled to <out>/sweep.journal (fsynced,
// checksummed; --checkpoint=off disables). A sweep killed mid-grid —
// SIGKILL, OOM, CI timeout — finishes later with `sweep --resume=<out>`,
// which replays the journal, re-executes only the missing tasks, and
// emits byte-identical files (at --timing=off) to an uninterrupted run.
// SIGINT/SIGTERM drain gracefully (exit 75 = resumable); --task-timeout
// and --retries bound stuck or flaky tasks, quarantining poisoned grid
// coordinates instead of hanging. See README "Crash safety".
//
//   radiocast_bench sweep --quick --dry-run
//   radiocast_bench sweep --family=gnp,cliquepath --n=geom:512..8192:5
//       --p=deg:12 --protocol=decay,compete
//       --medium=scalar,bitslice --recovery=auto --reps=16
//   radiocast_bench sweep --manifest=grid.json --threads=8
//   radiocast_bench sweep --resume=bench_out   # finish an interrupted run
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/checkpoint.hpp"
#include "exp/planner.hpp"
#include "exp/report.hpp"
#include "exp/spec.hpp"
#include "obs/progress.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/parse.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(sweep, "sweep",
                   "declarative experiment grids: family x n x param x "
                   "protocol x medium x recovery, lane-batched, with Wilson "
                   "intervals, theory-bound overlays, and checkpoint/resume") {
  const bool resuming = ctx.cli.has("resume");
  if (resuming) {
    // --resume names the interrupted run's output directory; reports and
    // the journal both live there, so it replaces --out wholesale.
    const std::string dir = ctx.cli.get_string("resume", "");
    if (dir.empty()) {
      throw std::invalid_argument(
          "--resume requires the output directory of the interrupted sweep "
          "(its --out)");
    }
    ctx.out_dir = dir;
  }

  const exp::SweepSpec spec = exp::SweepSpec::from_cli(ctx.cli, ctx.quick());
  const std::vector<exp::Job> jobs = exp::expand(spec);

  if (ctx.cli.get_bool("dry-run", false)) {
    ctx.note("sweep: " + std::to_string(jobs.size()) + " jobs, " +
             std::to_string(static_cast<long long>(jobs.size()) * spec.reps) +
             " replications");
    for (const exp::Job& job : jobs) {
      ctx.note("  " + job.label() + " x" + std::to_string(job.reps));
    }
    return;
  }

  const bool timing = ctx.cli.get_bool("timing", true);
  // Instance cache on (the default): grid points sharing instance
  // coordinates — execution axes, replication batches — reuse one pargen
  // build. --gen-cache=off rebuilds per batch for A/B cost measurements.
  exp::Planner::Options options;
  options.gen_threads = ctx.gen_threads();
  options.cache = ctx.cli.get_bool("gen-cache", true);
  if (ctx.cli.has("task-timeout")) {
    options.task_timeout_ms = util::parse_positive_int(
        ctx.cli.get_string("task-timeout", ""), "--task-timeout");
  }
  if (ctx.cli.has("retries")) {
    options.retries = static_cast<int>(
        util::parse_uint(ctx.cli.get_string("retries", ""), "--retries"));
  }
  const std::vector<exp::TaskRef> tasks = exp::flatten_tasks(jobs);
  const std::size_t task_count = tasks.size();

  // Live heartbeat on stderr: default auto = only when stderr is a TTY
  // (CI logs stay clean). Purely observational — never touches reports.
  const std::string progress_mode =
      ctx.cli.get_choice("progress", "auto", {"auto", "on", "off"});
  std::unique_ptr<obs::ProgressMeter> progress;
  if (progress_mode == "on" ||
      (progress_mode == "auto" && obs::ProgressMeter::stderr_is_tty())) {
    std::uint64_t total_reps = 0;
    for (const exp::TaskRef& task : tasks) {
      total_reps += static_cast<std::uint64_t>(task.count);
    }
    progress = std::make_unique<obs::ProgressMeter>(task_count, total_reps);
    options.progress = progress.get();
  }
  const exp::Planner planner{options};
  const bool checkpointing = ctx.cli.get_bool("checkpoint", true);
  std::unique_ptr<exp::Checkpoint> checkpoint;
  if (resuming) {
    if (!checkpointing) {
      throw std::invalid_argument("--resume needs the journal; it cannot be "
                                  "combined with --checkpoint=off");
    }
    // ctx.out_dir is non-empty here (checked above), so the journal has a
    // directory to live in — Report::enabled() and the journal agree.
    checkpoint = exp::Checkpoint::resume(ctx.out_dir, spec, task_count);
    ctx.note("sweep: resuming from " +
             exp::Checkpoint::journal_path(ctx.out_dir) + " — " +
             std::to_string(checkpoint->completed_count()) + "/" +
             std::to_string(task_count) + " tasks already journaled");
  } else if (checkpointing && !ctx.out_dir.empty()) {
    checkpoint = exp::Checkpoint::start(ctx.out_dir, spec, task_count);
  }

  exp::RunOutcome outcome =
      planner.run_durable(jobs, ctx.runner, checkpoint.get());
  if (progress != nullptr) progress->finish();

  if (outcome.interrupted) {
    const std::size_t done = outcome.tasks_replayed + outcome.tasks_run;
    throw exp::ResumableInterrupt(
        "sweep drained after shutdown request: " + std::to_string(done) +
        "/" + std::to_string(outcome.tasks_total) +
        " tasks journaled; finish with --resume=" +
        (ctx.out_dir.empty() ? std::string("<out-dir>") : ctx.out_dir));
  }

  for (const exp::QuarantinedTask& q : outcome.quarantined) {
    ctx.note("sweep: QUARANTINED task #" + std::to_string(q.task) + " " +
             q.job_label + " reps [" + std::to_string(q.first_rep) + ".." +
             std::to_string(q.first_rep + q.count - 1) + "]: " + q.error);
  }

  const std::vector<exp::PointResult>& results = outcome.points;
  util::Table table(exp::long_headers(timing));
  for (const exp::PointResult& point : results) {
    exp::add_long_row(table, point, timing);
  }
  ctx.emit(table,
           "sweep: " + std::to_string(results.size()) +
               " grid points x " + std::to_string(spec.reps) +
               " replications (lanes=" + std::to_string(spec.lanes) + ")",
           "sweep");
  ctx.note("(rounds stats over successful replications; rate carries a 95% "
           "Wilson interval; bound = core/theory overlay, x_bound = mean "
           "rounds / bound" +
           std::string(timing ? "; --timing=off for byte-stable files)"
                              : "; timing columns omitted)"));
  ctx.emit_json("sweep",
                exp::sweep_json(spec, results, timing, &outcome.quarantined));

  // Reports are on disk (atomically): the journal has served its purpose,
  // and leaving it would make a later --resume of this directory replay a
  // finished sweep.
  if (checkpoint != nullptr) {
    checkpoint->remove_journal();
    ctx.note("sweep: complete — journal removed");
  }
}
