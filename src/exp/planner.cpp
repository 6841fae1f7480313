#include "exp/planner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <cmath>

#include "exp/checkpoint.hpp"
#include "exp/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

#include "baselines/hw_broadcast.hpp"
#include "core/broadcast.hpp"
#include "core/compete_batched.hpp"
#include "core/theory.hpp"
#include "graph/generators.hpp"
#include "radio/batch_network.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace radiocast::exp {

namespace {

constexpr radio::Payload kBroadcastMessage = 7;

/// Scalar protocol cores (one replication per lane, no execution axes).
bool scalar_core(const std::string& protocol) {
  return protocol == "cd" || protocol == "hw";
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The family's parameter axis (display name + values); parameterless
/// families sweep one dimensionless point.
void family_params(const SweepSpec& spec, const std::string& family,
                   std::string& name, std::vector<double>& values) {
  if (family == "gnp") {
    name = spec.p_is_degree ? "deg" : "p";
    values = spec.p;
  } else if (family == "rgg") {
    name = "radius";
    values = spec.radius;
  } else if (family == "ba") {
    name = "m";
    values.assign(spec.ba_m.begin(), spec.ba_m.end());
  } else if (family == "powerlaw") {
    name = "exp";
    values = spec.exponent;
  } else if (family == "cliquepath") {
    name = "d";
    values.assign(spec.d.begin(), spec.d.end());
  } else {  // grid
    name = "";
    values = {0.0};
  }
}

}  // namespace

std::string Job::label() const {
  std::string out = family;
  if (!param_name.empty()) {
    out += '[';
    out += param_name;
    out += '=';
    out += util::json_number(param);
    out += ']';
  }
  out += "/n=";
  out += std::to_string(n);
  out += '/';
  out += protocol;
  out += '/';
  out += radio::to_string(medium);
  if (lane_width > 1) {
    out += '/';
    out += radio::to_string(recovery);
    out += "/lanes=";
    out += std::to_string(lane_width);
  }
  return out;
}

namespace {

/// Replication/instance seed base for one grid point: a hash chain over
/// the INSTANCE coordinates (family, parameter, n) — not the enumeration
/// index — so the same coordinates draw the same randomness in any grid
/// shape (adding an n value or a family to a sweep does not move every
/// other point's outcomes), and every medium/recovery/protocol job on a
/// point replays the same graph and per-replication streams.
std::uint64_t point_seed_for(std::uint64_t base, const std::string& family,
                             double param, std::uint32_t n) {
  std::uint64_t seed = base;
  for (const char c : family) {
    seed = util::mix_seed(seed, static_cast<unsigned char>(c));
  }
  seed = util::mix_seed(seed, std::bit_cast<std::uint64_t>(param));
  return util::mix_seed(seed, n);
}

}  // namespace

std::vector<Job> expand(const SweepSpec& spec) {
  spec.validate();
  std::vector<Job> jobs;
  for (const std::string& family : spec.families) {
    std::string param_name;
    std::vector<double> params;
    family_params(spec, family, param_name, params);
    for (const double param : params) {
      for (const std::uint32_t n : spec.n) {
        const std::uint64_t point_seed =
            point_seed_for(spec.seed, family, param, n);
        for (const std::string& protocol : spec.protocols) {
          const bool batched = !scalar_core(protocol);
          // Scalar cores identify no execution axes: collapse them so the
          // grid never reruns identical work under different labels.
          const std::size_t medium_count = batched ? spec.mediums.size() : 1;
          const std::size_t recovery_count =
              batched ? spec.recoveries.size() : 1;
          for (std::size_t mi = 0; mi < medium_count; ++mi) {
            for (std::size_t ri = 0; ri < recovery_count; ++ri) {
              Job job;
              job.index = static_cast<int>(jobs.size());
              job.family = family;
              job.param_name = param_name;
              job.param = param;
              job.n = n;
              job.protocol = protocol;
              job.medium =
                  batched ? spec.mediums[mi] : radio::MediumKind::kScalar;
              job.recovery = batched ? spec.recoveries[ri]
                                     : radio::RecoveryStrategy::kAuto;
              job.lane_width = batched ? spec.lanes : 1;
              job.reps = spec.reps;
              job.sources = spec.sources;
              job.max_rounds = spec.max_rounds;
              job.seed = point_seed;
              job.instance_seed = util::mix_seed(point_seed, 0xA11CEu);
              job.pl_deg = spec.pl_deg;
              jobs.push_back(std::move(job));
            }
          }
        }
      }
    }
  }
  return jobs;
}

sim::Instance build_instance(const Job& job, int gen_threads) {
  if (job.family == "gnp") {
    const double p = job.param_name == "deg"
                         ? std::min(1.0, job.param / job.n)
                         : job.param;
    return sim::make_gnp_instance(job.n, p, job.instance_seed, gen_threads);
  }
  if (job.family == "rgg") {
    return sim::make_rgg_instance(job.n, job.param, job.instance_seed,
                                  gen_threads);
  }
  if (job.family == "ba") {
    return sim::make_ba_instance(job.n,
                                 static_cast<std::uint32_t>(job.param),
                                 job.instance_seed, gen_threads);
  }
  if (job.family == "powerlaw") {
    return sim::make_powerlaw_instance(job.n, job.param, job.pl_deg,
                                       job.instance_seed, gen_threads);
  }
  if (job.family == "cliquepath") {
    return sim::make_cliquepath_instance(
        job.n, static_cast<graph::NodeId>(job.param));
  }
  if (job.family == "grid") {
    const auto rows = static_cast<graph::NodeId>(
        std::max(1.0, std::floor(std::sqrt(static_cast<double>(job.n)))));
    const graph::NodeId cols = (job.n + rows - 1) / rows;
    return sim::make_grid_instance(rows, cols);
  }
  throw std::invalid_argument("unknown graph family '" + job.family + "'");
}

double theory_bound(const std::string& protocol, std::uint32_t n,
                    std::uint32_t diameter, int sources) {
  if (protocol == "decay") return core::theory::bound_bgi(n, diameter);
  if (protocol == "cr") return core::theory::bound_crkp(n, diameter);
  if (protocol == "compete") {
    return core::theory::bound_compete(
        n, diameter, static_cast<std::uint64_t>(sources));
  }
  if (protocol == "cd") return core::theory::bound_cd(n, diameter);
  if (protocol == "hw") return core::theory::bound_hw(n, diameter);
  throw std::invalid_argument("unknown protocol '" + protocol + "'");
}

namespace {

/// Generous per-replication round budget when the spec leaves max_rounds
/// at 0: a w.h.p. run terminates well inside it, a stuck one is bounded.
std::uint64_t auto_budget(const Job& job, std::uint32_t n,
                          std::uint32_t diameter) {
  const double bound = theory_bound(job.protocol, n, diameter, job.sources);
  return 2000 + static_cast<std::uint64_t>(8.0 * bound);
}

std::vector<core::CompeteSource> make_sources(const Job& job,
                                              std::uint32_t n) {
  if (job.protocol != "compete") return {{0, kBroadcastMessage}};
  std::vector<core::CompeteSource> sources;
  const auto count = static_cast<std::uint32_t>(job.sources);
  sources.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // Sources spread evenly, descending payloads: source 0 (node 0) wins.
    sources.push_back({static_cast<graph::NodeId>(
                           (static_cast<std::uint64_t>(i) * n) / count),
                       radio::Payload{1'000'000} - i});
  }
  return sources;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// `shared` non-null = the Planner cache's prebuilt instance; null = build
/// here (cache off) and report the cost in out.gen_ns. Either way wall_ms
/// covers the protocol replications only — generation cost is accounted
/// separately so the two are comparable across cache modes.
TaskOutcome run_task(const Job& job, int first_rep, int count,
                     const sim::Instance* shared, int gen_threads) {
  TaskOutcome out;
  sim::Instance local;
  if (shared == nullptr) {
    const std::uint64_t g0 = now_ns();
    local = build_instance(job, gen_threads);
    out.gen_ns = now_ns() - g0;
    shared = &local;
  }
  const sim::Instance& inst = *shared;
  const double t0 = now_ms();
  out.n_actual = inst.g.node_count();
  out.diameter = inst.diameter;
  out.lanes.reserve(static_cast<std::size_t>(count));

  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (int l = 0; l < count; ++l) {
    seeds[static_cast<std::size_t>(l)] =
        util::mix_seed(job.seed, static_cast<std::uint64_t>(first_rep + l));
  }

  if (scalar_core(job.protocol)) {
    const core::CompeteParams params = job.protocol == "hw"
                                           ? baselines::hw_params()
                                           : core::CompeteParams{};
    for (const std::uint64_t seed : seeds) {
      const auto r = core::broadcast(inst.g, inst.diameter, 0,
                                     kBroadcastMessage, params, seed);
      LaneOutcome lane;
      lane.success = r.success;
      lane.rounds = static_cast<double>(r.rounds);
      lane.informed = static_cast<double>(r.informed);
      out.lanes.push_back(lane);
    }
  } else {
    radio::BatchNetwork bn(inst.g, count, radio::CollisionModel::kNoDetection,
                           job.medium, job.recovery);
    core::BatchedCompeteParams params =
        job.protocol == "cr" ? core::cr_params(out.n_actual, out.diameter)
                             : core::BatchedCompeteParams{};
    params.max_rounds = job.max_rounds != 0
                            ? job.max_rounds
                            : auto_budget(job, out.n_actual, out.diameter);
    const auto results = core::compete_batched(
        bn, make_sources(job, out.n_actual), params, seeds);
    out.phases = bn.medium().phase_timers();
    for (const auto& r : results) {
      LaneOutcome lane;
      lane.success = r.success;
      lane.rounds = static_cast<double>(r.rounds);
      lane.informed = static_cast<double>(r.informed);
      lane.deliveries = static_cast<double>(r.deliveries);
      lane.transmissions = static_cast<double>(r.transmissions);
      out.lanes.push_back(lane);
    }
  }
  out.wall_ms = now_ms() - t0;
  return out;
}

}  // namespace

namespace {

/// Instance identity for the Planner cache: every field the generated
/// graph is a function of. Jobs differing only in protocol / medium /
/// recovery / reps map to the same key by construction (expand() derives
/// instance_seed from the instance coordinates alone).
std::string instance_key(const Job& job) {
  std::string key = job.family;
  key += '|';
  key += job.param_name;
  key += '|';
  key += util::json_number(job.param);
  key += '|';
  key += std::to_string(job.n);
  key += '|';
  key += util::json_number(job.pl_deg);
  key += '|';
  key += std::to_string(job.instance_seed);
  return key;
}

struct BuiltInstance {
  std::shared_ptr<const sim::Instance> instance;
  std::uint64_t gen_ns = 0;
};

/// One task attempt, optionally under the watchdog. The worker thread
/// captures the Job by VALUE and the instance by shared_ptr: a timed-out
/// attempt is abandoned (detached), and must never dangle into Planner
/// locals that the rest of the run goes on to destroy.
TaskOutcome attempt_task(const Job& job, const TaskRef& task,
                         std::shared_ptr<const sim::Instance> shared,
                         int gen_threads, std::size_t task_index, int attempt,
                         int timeout_ms) {
  if (timeout_ms <= 0) {
    FaultInjector::global().on_task_attempt(task_index, attempt);
    return run_task(job, task.first_rep, task.count, shared.get(),
                    gen_threads);
  }
  auto promise = std::make_shared<std::promise<TaskOutcome>>();
  auto future = promise->get_future();
  std::thread worker([promise, job, task, shared = std::move(shared),
                      gen_threads, task_index, attempt] {
    try {
      FaultInjector::global().on_task_attempt(task_index, attempt);
      promise->set_value(run_task(job, task.first_rep, task.count,
                                  shared.get(), gen_threads));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  if (future.wait_for(std::chrono::milliseconds(timeout_ms)) ==
      std::future_status::ready) {
    worker.join();
    return future.get();
  }
  worker.detach();
  obs::trace_instant("sweep.watchdog_fire");
  static obs::Counter& watchdog_fires =
      obs::Metrics::global().counter("sweep.watchdog_fires");
  watchdog_fires.add();
  throw std::runtime_error("watchdog: task attempt still running after " +
                           std::to_string(timeout_ms) + "ms");
}

/// Retry/quarantine policy around attempt_task. Config errors
/// (invalid_argument/logic_error — unknown family, bad protocol) rethrow
/// immediately: retrying cannot fix them and quarantining would hide
/// them. Everything else (protocol runtime failures, watchdog timeouts,
/// injected transient faults) is retried with exponential backoff, then
/// quarantined.
TaskOutcome execute_guarded(const Job& job, const TaskRef& task,
                            const std::shared_ptr<const sim::Instance>& shared,
                            const Planner::Options& options,
                            std::size_t task_index) {
  for (int attempt = 0;; ++attempt) {
    try {
      return attempt_task(job, task, shared, options.gen_threads, task_index,
                          attempt, options.task_timeout_ms);
    } catch (const std::logic_error&) {
      throw;
    } catch (const std::exception& e) {
      if (attempt < options.retries) {
        obs::trace_instant("sweep.retry");
        static obs::Counter& retries =
            obs::Metrics::global().counter("sweep.retries");
        retries.add();
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(1000, 25 << std::min(attempt, 5))));
        continue;
      }
      obs::trace_instant("sweep.quarantine");
      static obs::Counter& quarantined =
          obs::Metrics::global().counter("sweep.quarantined");
      quarantined.add();
      TaskOutcome out;
      out.quarantined = true;
      out.error = e.what();
      return out;
    }
  }
}

}  // namespace

std::vector<TaskRef> flatten_tasks(std::span<const Job> jobs) {
  // Flatten jobs into (job, lane-batch) tasks so small per-job batch
  // counts still saturate the pool across the whole grid.
  std::vector<TaskRef> tasks;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    for (int first = 0; first < job.reps; first += job.lane_width) {
      tasks.push_back({static_cast<int>(j), first,
                       std::min(job.lane_width, job.reps - first)});
    }
  }
  return tasks;
}

std::vector<PointResult> Planner::run(std::span<const Job> jobs,
                                      sim::Runner& runner) const {
  RunOutcome outcome = run_durable(jobs, runner, nullptr);
  if (outcome.interrupted) {
    throw ResumableInterrupt(
        "sweep interrupted before completion (resume to finish)");
  }
  if (!outcome.quarantined.empty()) {
    const QuarantinedTask& q = outcome.quarantined.front();
    throw std::runtime_error(q.job_label + ": " + q.error);
  }
  return std::move(outcome.points);
}

RunOutcome Planner::run_durable(std::span<const Job> jobs,
                                sim::Runner& runner,
                                Checkpoint* checkpoint) const {
  const std::vector<TaskRef> tasks = flatten_tasks(jobs);
  RunOutcome outcome;
  outcome.tasks_total = tasks.size();

  // Resume: tasks the journal already holds are replayed, not re-run.
  std::vector<char> pending(tasks.size(), 1);
  if (checkpoint != nullptr) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (checkpoint->completed(t)) pending[t] = 0;
    }
  }

  // Instance cache: deduplicate jobs by instance identity, build each
  // unique instance ONCE (over the runner pool; the pargen chunk scheme
  // additionally parallelises inside a build), and hand every task a
  // shared_ptr. Grids where only execution axes or replication batches
  // vary regenerate nothing — and a resumed sweep builds ONLY the
  // instances its still-pending tasks touch. All built instances stay
  // resident for the run — the cost profile the million-node acceptance
  // sweep wants (one point at a time dominates memory anyway).
  std::vector<int> job_instance(jobs.size(), -1);
  std::vector<int> representative;  // unique instance -> first job index
  std::vector<BuiltInstance> built;
  if (options_.cache) {
    std::unordered_map<std::string, int> keys;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto [it, inserted] = keys.try_emplace(
          instance_key(jobs[j]), static_cast<int>(representative.size()));
      if (inserted) representative.push_back(static_cast<int>(j));
      job_instance[j] = it->second;
    }
    built.resize(representative.size());
    std::vector<int> to_build;
    {
      std::vector<char> needed(representative.size(), 0);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (pending[t] != 0) {
          needed[static_cast<std::size_t>(
              job_instance[static_cast<std::size_t>(tasks[t].job)])] = 1;
        }
      }
      for (std::size_t i = 0; i < representative.size(); ++i) {
        if (needed[i] != 0) to_build.push_back(static_cast<int>(i));
      }
    }
    auto builds = runner.map(static_cast<int>(to_build.size()), [&](int b) {
      const auto inst = static_cast<std::size_t>(
          to_build[static_cast<std::size_t>(b)]);
      const obs::TraceSpan span("sweep.build_instance", "instance", inst);
      const std::uint64_t g0 = now_ns();
      auto instance = std::make_shared<const sim::Instance>(build_instance(
          jobs[static_cast<std::size_t>(
              representative[inst])],
          options_.gen_threads));
      const std::uint64_t gen_ns = now_ns() - g0;
      static obs::Histogram& gen_hist =
          obs::Metrics::global().histogram("sweep.instance_gen_ns");
      gen_hist.record(gen_ns);
      return BuiltInstance{std::move(instance), gen_ns};
    });
    for (std::size_t b = 0; b < to_build.size(); ++b) {
      built[static_cast<std::size_t>(to_build[b])] = std::move(builds[b]);
    }
  }

  // Execute the pending tasks. Each worker checks the drain flag before
  // STARTING a task (in-flight tasks always finish and journal — that is
  // the graceful part), quarantines through execute_guarded, and records
  // into the journal before the task counts as done.
  std::vector<std::optional<TaskOutcome>> outs(tasks.size());
  if (checkpoint != nullptr) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (pending[t] == 0) outs[t] = *checkpoint->outcome(t);
    }
  }
  std::vector<int> pending_list;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (pending[t] != 0) pending_list.push_back(static_cast<int>(t));
  }
  if (options_.progress != nullptr) {
    std::uint64_t replayed_reps = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (pending[t] == 0) {
        replayed_reps += static_cast<std::uint64_t>(tasks[t].count);
      }
    }
    options_.progress->add_replayed(tasks.size() - pending_list.size(),
                                    replayed_reps);
  }
  auto executed = runner.map(
      static_cast<int>(pending_list.size()),
      [&](int i) -> std::optional<TaskOutcome> {
        const auto t = static_cast<std::size_t>(
            pending_list[static_cast<std::size_t>(i)]);
        if (shutdown_requested()) return std::nullopt;
        const TaskRef& task = tasks[t];
        const obs::TraceSpan span("sweep.task", "task", t, "job",
                                  static_cast<std::uint64_t>(task.job));
        std::shared_ptr<const sim::Instance> shared =
            options_.cache ? built[static_cast<std::size_t>(job_instance[
                                 static_cast<std::size_t>(task.job)])]
                                 .instance
                           : nullptr;
        const bool cache_hit = shared != nullptr;
        TaskOutcome out = execute_guarded(
            jobs[static_cast<std::size_t>(task.job)], task, shared, options_,
            t);
        if (!out.quarantined) {
          static obs::Histogram& wall_hist =
              obs::Metrics::global().histogram("sweep.task_wall_ms");
          wall_hist.record(static_cast<std::uint64_t>(
              std::max(0.0, out.wall_ms)));
        }
        if (checkpoint != nullptr) checkpoint->record(t, out);
        if (options_.progress != nullptr) {
          options_.progress->task_done(
              static_cast<std::uint64_t>(task.count), cache_hit,
              out.quarantined);
        }
        return out;
      });
  for (std::size_t i = 0; i < pending_list.size(); ++i) {
    const auto t = static_cast<std::size_t>(pending_list[i]);
    if (executed[i].has_value()) {
      outs[t] = std::move(executed[i]);
      ++outcome.tasks_run;
    } else {
      outcome.interrupted = true;
    }
  }
  outcome.tasks_replayed = tasks.size() - pending_list.size();

  // Fold strictly in task order: the accumulators (and therefore every
  // emitted statistic) are independent of how the map was scheduled AND
  // of how many earlier runs contributed journal records. Quarantined
  // tasks contribute nothing to the statistics — they surface in the
  // quarantine list instead.
  outcome.points.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    outcome.points[j].job = jobs[j];
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (!outs[t].has_value()) continue;  // drained before start
    const TaskOutcome& out = *outs[t];
    const TaskRef& task = tasks[t];
    if (out.quarantined) {
      outcome.quarantined.push_back(
          {t, jobs[static_cast<std::size_t>(task.job)].label(),
           task.first_rep, task.count, out.error});
      continue;
    }
    PointResult& point = outcome.points[static_cast<std::size_t>(task.job)];
    point.n_actual = out.n_actual;
    point.diameter = out.diameter;
    point.gen.gen_ns += out.gen_ns;
    for (const LaneOutcome& lane : out.lanes) {
      point.acc.add(lane.success, lane.rounds, lane.deliveries,
                    lane.transmissions, lane.informed);
    }
    point.acc.add_phases(out.phases);
    point.acc.add_wall_ms(out.wall_ms);
  }

  // Hit/miss attribution is STATIC — derived from the deterministic task
  // list, not from which worker touched the cache first (or which run a
  // record came from) — so the counters are byte-stable across thread
  // counts and resume boundaries: the first task (in task order) of each
  // unique instance is the miss, every later task a hit.
  if (options_.cache) {
    std::vector<bool> missed(built.size(), false);
    for (const TaskRef& task : tasks) {
      const auto inst =
          static_cast<std::size_t>(job_instance[static_cast<std::size_t>(
              task.job)]);
      PointResult& point =
          outcome.points[static_cast<std::size_t>(task.job)];
      if (!missed[inst]) {
        missed[inst] = true;
        ++point.gen.cache_misses;
      } else {
        ++point.gen.cache_hits;
      }
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      outcome.points[j].gen.gen_ns =
          built[static_cast<std::size_t>(job_instance[j])].gen_ns;
    }
  } else {
    // Cache off: every task built its own instance; each build is a miss.
    for (const TaskRef& task : tasks) {
      ++outcome.points[static_cast<std::size_t>(task.job)].gen.cache_misses;
    }
  }

  for (PointResult& point : outcome.points) {
    // A point whose every batch was quarantined or drained never
    // materialised an instance; bounds over n = 0 are meaningless.
    if (point.n_actual == 0) continue;
    point.acc.set_theory_bound(theory_bound(
        point.job.protocol, point.n_actual, point.diameter, point.job.sources));
  }
  return outcome;
}

}  // namespace radiocast::exp
