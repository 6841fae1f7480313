// perfbench: the measuring program behind the repository benchmark
// (perfbench/run.py builds and drives it; see perfbench/README.md).
//
// One process runs one workload on one thread, closed loop. A workload is a
// fixed list of tasks; task t runs on instance t % instances with the
// replication seeds util::mix_seed(job.seed, rep), the way exp::Planner
// derives them. A run repeats the whole list in rounds until the time budget
// is spent (at least kMinRounds), rebuilding the instances between tasks,
// and reports each task's and each instance build's fastest CPU time over
// the rounds. On a shared host the same task's CPU time varies by 20-60%
// from second to second, with brief quiet spells common to all code; the
// median of a 40 s window moves by ~20% from one window to the next, the
// fastest of ~30 or more repeats spread over the window by ~4%. So a round
// is kept to about a second and every task runs in every round. Every
// round's outcomes are checked, and must equal round 0's: the outcome
// digest and rounds_mean are a pure function of the seed.
//
//   cd-gnp           core::broadcast (Czumaj-Davies) on gnp n=1024, deg 16
//   le-cliquepath    core::elect_leader on cliquepath n=512, d=128
//   decay-lanes-gnp  core::compete_batched, 64 Decay lanes on a bitslice
//                    radio::BatchNetwork, on the cd-gnp instances
//
// --trace 0 measures the library calls with nothing else timed. --trace 1
// alternates an untraced round of the library calls with a traced round
// under obs::TraceSession. The traced cd/le replications call each layer
// from this file (a mirror of core::compete's orchestration through the
// public cluster, schedule and PropagationEngine APIs, checked outcome for
// outcome against the library call) so the trace attributes task wall to
// layers; the library's own scalar.round / bitslice.round spans supply the
// radio layer. The trace file and the layer counters are the last traced
// round's.
//
// The last stdout line is one JSON object of raw measurements; run.py turns
// it into the benchmark's metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "core/broadcast.hpp"
#include "core/compete.hpp"
#include "core/compete_batched.hpp"
#include "core/leader_election.hpp"
#include "core/propagation.hpp"
#include "core/theory.hpp"
#include "exp/checkpoint.hpp"
#include "exp/planner.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/pargen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/batch_network.hpp"
#include "radio/network.hpp"
#include "schedule/bfs_schedule.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace {

using namespace radiocast;
using Clock = std::chrono::steady_clock;
using graph::NodeId;

/// exp::Planner's broadcast payload (planner.cpp kBroadcastMessage).
constexpr radio::Payload kMessage = 7;

/// Rounds every run completes, even past the time budget: the fewest over
/// which a fastest-of time means anything.
constexpr int kMinRounds = 2;

constexpr double kInf = std::numeric_limits<double>::infinity();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process, every thread, in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Elapsed {
  double wall_ms = 0;
  double cpu_ms = 0;
};

/// Times tasks and setup in both clocks. The reported times are CPU time:
/// on a shared host another process's load stretches wall time by however
/// long this one waits for a core, and CPU time leaves that wait out.
struct Stopwatch {
  Clock::time_point wall = Clock::now();
  double cpu = process_cpu_ms();
  Elapsed elapsed() const {
    return {ms_between(wall, Clock::now()), process_cpu_ms() - cpu};
  }
};

/// Fastest CPU time per slot over the rounds, plus the total time in both
/// clocks (their ratio shows how long the process waited for a core).
struct BestTimes {
  std::vector<double> cpu_ms;
  double wall_total_ms = 0;
  double cpu_total_ms = 0;

  explicit BestTimes(int slots) : cpu_ms(static_cast<std::size_t>(slots), kInf) {}
  void add(int slot, const Elapsed& e) {
    double& best = cpu_ms.at(static_cast<std::size_t>(slot));
    best = std::min(best, e.cpu_ms);
    wall_total_ms += e.wall_ms;
    cpu_total_ms += e.cpu_ms;
  }
};

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;
  std::string out_dir = "bench_out/perfbench";
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--size") {
      if (value != "tiny" && value != "full") {
        throw std::invalid_argument("--size must be tiny or full");
      }
      opt.tiny = value == "tiny";
    } else if (key == "--tamper") {
      opt.tamper = value == "1";
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (opt.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

// ---------------------------------------------------------------- workloads

enum class Kind { kCd, kLe, kDecayLanes };

struct Workload {
  Kind kind = Kind::kCd;
  /// One grid point. Instance k expands it with the seed
  /// util::mix_seed(--seed, k), so its graph and replication seeds are the
  /// ones a sweep of that seed would derive.
  exp::SweepSpec spec;
  /// Instances the tasks are spread over. A CD task's cost and rounds
  /// depend on the gnp instance, so one instance would make one workload
  /// seed's figures differ from the next's by ~20%. cliquepath is not
  /// random: one instance.
  int instances = 1;
  /// Tasks per round; a multiple of `instances`. The time and rounds of one
  /// CD or LE replication vary by 25-50% of their mean between replication
  /// seeds, so a few hundred replications are needed for the workload
  /// seeds' figures to agree within a few percent; that sets the instance
  /// sizes.
  int tasks = 1;
  /// Replications per task: one batch's lanes on decay-lanes-gnp; on cd and
  /// le a block of replications of one instance run back to back. One CD
  /// replication takes either about 2.5 or about 3.5 ms, so a median over
  /// single replications would jump between the two from seed to seed.
  int reps_per_task = 1;
};

Workload make_workload(const Options& opt) {
  Workload w;
  exp::SweepSpec& s = w.spec;
  s.mediums = {radio::MediumKind::kScalar};
  s.recoveries = {radio::RecoveryStrategy::kAuto};
  // cd-gnp and decay-lanes-gnp share their gnp instances. At average
  // degree 12 many instances have a degree-1 or -2 tail that adds one or
  // two to D and ~15% to a CD task; degree 16 has no such tail.
  const std::uint32_t gnp_n = opt.tiny ? 256 : 1024;
  s.p = {16.0};
  s.p_is_degree = true;
  if (opt.workload == "cd-gnp") {
    w.kind = Kind::kCd;
    s.families = {"gnp"};
    s.n = {gnp_n};
    s.protocols = {"cd"};
    w.instances = opt.tiny ? 2 : 16;
    w.tasks = opt.tiny ? 4 : 32;
    w.reps_per_task = opt.tiny ? 2 : 8;
  } else if (opt.workload == "le-cliquepath") {
    w.kind = Kind::kLe;
    s.families = {"cliquepath"};
    s.n = {opt.tiny ? 128u : 512u};
    s.d = {opt.tiny ? 32u : 128u};
    s.protocols = {"cd"};
    w.tasks = opt.tiny ? 4 : 20;
    w.reps_per_task = opt.tiny ? 2 : 8;
  } else if (opt.workload == "decay-lanes-gnp") {
    w.kind = Kind::kDecayLanes;
    s.families = {"gnp"};
    s.n = {gnp_n};
    s.protocols = {"decay"};
    s.mediums = {radio::MediumKind::kBitslice};
    s.lanes = radio::kMaxLanes;
    w.instances = opt.tiny ? 2 : 16;
    w.tasks = opt.tiny ? 2 : 16;
    w.reps_per_task = static_cast<int>(s.lanes);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload +
                                "' (cd-gnp, le-cliquepath, decay-lanes-gnp)");
  }
  s.reps = static_cast<std::uint32_t>((w.tasks / w.instances) * w.reps_per_task);
  return w;
}

// ----------------------------------------------------------------- outcomes

/// One replication's observable result. `tag` is the elected leader for
/// le-cliquepath and the lane's transmission count for decay-lanes-gnp.
struct RepOutcome {
  bool success = false;
  std::uint64_t rounds = 0;
  std::uint32_t informed = 0;
  std::uint64_t tag = 0;
  bool operator==(const RepOutcome&) const = default;
};

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
};

/// Round 0's outcomes per task, and the failure count over every round.
struct OutcomeLog {
  std::vector<std::vector<RepOutcome>> reference;
  std::uint64_t attempted = 0;
  /// Replications whose outcome check failed, or whose outcome differed
  /// from the same replication's in round 0.
  std::uint64_t failed = 0;

  explicit OutcomeLog(int tasks)
      : reference(static_cast<std::size_t>(tasks)) {}

  void record(int round, int task, std::vector<RepOutcome> reps,
              std::uint64_t failed_reps) {
    attempted += reps.size();
    failed += failed_reps;
    auto& ref = reference.at(static_cast<std::size_t>(task));
    if (round == 0) {
      ref = std::move(reps);
      return;
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (i >= ref.size() || !(reps[i] == ref[i])) ++failed;
    }
  }

  std::string digest() const {
    Fnv1a f;
    for (const auto& task : reference) {
      for (const RepOutcome& r : task) {
        f.add(r.success ? 1 : 0);
        f.add(r.rounds);
        f.add(r.informed);
        f.add(r.tag);
      }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(f.h));
    return buf;
  }

  std::uint64_t successes() const {
    std::uint64_t count = 0;
    for (const auto& task : reference) {
      for (const RepOutcome& r : task) count += r.success ? 1 : 0;
    }
    return count;
  }

  /// Mean rounds over the successful replications.
  double rounds_mean() const {
    double sum = 0;
    for (const auto& task : reference) {
      for (const RepOutcome& r : task) {
        if (r.success) sum += static_cast<double>(r.rounds);
      }
    }
    const std::uint64_t count = successes();
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// ----------------------------------------- leader election candidate draw

/// Algorithm 6 steps 1-2 exactly as core::elect_leader draws them. Returns
/// the candidates and leaves `rng` where elect_leader draws Compete's seed,
/// so the benchmark can both check the elected leader is a candidate and
/// replay the election layer by layer.
std::vector<core::CompeteSource> draw_candidates(
    const graph::Graph& g, const core::LeaderElectionParams& params,
    util::Rng& rng) {
  const NodeId n = g.node_count();
  const double log_n = util::safe_log2(static_cast<double>(n));
  const double p =
      std::min(1.0, params.candidate_c * log_n /
                        static_cast<double>(std::max<NodeId>(1, n)));
  const double bits = std::clamp(params.id_bits_c * log_n, 8.0, 31.0);
  const std::uint64_t id_space =
      std::uint64_t{1} << static_cast<std::uint32_t>(std::ceil(bits));
  std::vector<core::CompeteSource> candidates;
  auto draw_round = [&] {
    for (NodeId v = 0; v < n; ++v) {
      if (!rng.bernoulli(p)) continue;
      const std::uint64_t rand_id = rng.uniform(id_space);
      candidates.push_back({v, (rand_id << 32) | static_cast<radio::Payload>(v)});
    }
  };
  draw_round();
  for (std::uint32_t retries = 0; candidates.empty() && retries < 64;
       ++retries) {
    draw_round();
  }
  return candidates;
}

util::Rng le_rng(std::uint64_t seed) {
  return util::Rng(util::mix_seed(seed, 0xE1EC7));
}

// ------------------------------------------------- layer-by-layer Compete

/// Sums of core::compete's engine statistics and the mirror's own counts.
struct LayerCounters {
  std::uint64_t rounds = 0;
  std::uint64_t partitions = 0;
  std::uint64_t wave_deliveries = 0;
  std::uint64_t wave_blocked = 0;
  std::uint64_t decay_deliveries = 0;
  std::uint64_t windows = 0;
  std::uint64_t candidates = 0;

  void add_stats(const core::PropagationStats& s) {
    wave_deliveries += s.wave_deliveries;
    wave_blocked += s.wave_blocked;
    decay_deliveries += s.decay_deliveries;
    windows += s.windows_started;
  }
};

cluster::Partition trivial_partition(const graph::Graph& g) {
  cluster::Partition p;
  const NodeId n = g.node_count();
  p.beta = 1.0;
  p.center.assign(n, 0);
  p.dist_to_center.assign(n, 0);
  p.parent.assign(n, 0);
  p.delta.assign(n, 0.0);
  return p;
}

/// core::compete, step for step, with a span around every call into the
/// cluster, schedule and core layers. Draws the same random numbers in the
/// same order, so its outcome must equal the library's for the same seed.
RepOutcome mirror_compete(const graph::Graph& g, std::uint32_t diameter,
                          const std::vector<core::CompeteSource>& sources,
                          const core::CompeteParams& params, std::uint64_t seed,
                          LayerCounters& counters) {
  const NodeId n = g.node_count();
  std::vector<radio::Payload> best(n, radio::kNoPayload);
  radio::Payload winner = radio::kNoPayload;
  for (const auto& s : sources) {
    if (best[s.node] == radio::kNoPayload || s.value > best[s.node]) {
      best[s.node] = s.value;
    }
    if (winner == radio::kNoPayload || s.value > winner) winner = s.value;
  }
  RepOutcome out;
  if (sources.empty()) {
    out.success = true;
    return out;
  }

  util::Rng rng(seed);
  const double d = static_cast<double>(std::max<std::uint32_t>(2, diameter));
  const double log_n = util::safe_log2(static_cast<double>(n));
  const double log_d = util::safe_log2(d);

  std::optional<cluster::Hierarchy> hierarchy;
  {
    const obs::TraceSpan span("cluster.hierarchy");
    hierarchy.emplace(g, diameter, params.hierarchy, rng);
  }
  hierarchy->set_randomize(params.randomize_beta);
  counters.partitions += 1 + hierarchy->fine_count();

  std::vector<std::unique_ptr<schedule::TreeSchedule>> main_scheds;
  std::vector<const schedule::TreeSchedule*> main_sched_ptrs;
  {
    const obs::TraceSpan span("schedule.tree", "count",
                              hierarchy->fine_count());
    for (std::size_t ji = 0; ji < hierarchy->j_values().size(); ++ji) {
      for (std::uint32_t r = 0; r < hierarchy->reps_per_j(); ++r) {
        main_scheds.push_back(std::make_unique<schedule::TreeSchedule>(
            g, hierarchy->fine(ji, r), params.mode));
        main_sched_ptrs.push_back(main_scheds.back().get());
      }
    }
  }

  const double hw_factor =
      params.hw_curtail ? std::max(1.0, std::log2(log_n)) : 1.0;
  const double curtail_c = params.curtail_constant * hw_factor;
  const cluster::Hierarchy& h = *hierarchy;
  auto choose_main = [&h, curtail_c, log_n, log_d](
                         NodeId center, std::uint64_t pos) {
    const auto c = h.sequence_choice(center, pos);
    core::WindowChoice w;
    w.sched_index =
        static_cast<std::uint32_t>(c.j_index * h.reps_per_j() + c.rep);
    w.pass_hops = static_cast<std::uint32_t>(
        std::ceil(curtail_c * log_n / (c.beta * log_d)));
    return w;
  };

  core::PropagationEngine::Config main_cfg;
  main_cfg.graph = &g;
  main_cfg.regions = &h.coarse();
  main_cfg.scheds = main_sched_ptrs;
  main_cfg.choose = choose_main;
  main_cfg.icp_background = params.enable_icp_background;
  main_cfg.seed = rng();
  std::optional<core::PropagationEngine> main_engine;
  {
    const obs::TraceSpan span("core.engine_init");
    main_engine.emplace(main_cfg);
  }

  std::unique_ptr<cluster::Partition> bg_regions;
  std::vector<std::unique_ptr<cluster::Partition>> bg_parts;
  std::vector<std::unique_ptr<schedule::TreeSchedule>> bg_scheds;
  std::vector<const schedule::TreeSchedule*> bg_sched_ptrs;
  std::optional<core::PropagationEngine> bg_engine;
  if (params.enable_background) {
    bg_regions = std::make_unique<cluster::Partition>(trivial_partition(g));
    const double bg_beta = util::fpow(d, params.bg_beta_exponent);
    const std::uint32_t bg_reps = std::min<std::uint32_t>(
        params.max_bg_clusterings,
        static_cast<std::uint32_t>(
            std::max(1.0, std::ceil(util::fpow(d, params.bg_reps_exponent)))));
    for (std::uint32_t r = 0; r < bg_reps; ++r) {
      {
        const obs::TraceSpan span("cluster.partition");
        bg_parts.push_back(std::make_unique<cluster::Partition>(
            cluster::partition(g, bg_beta, rng)));
      }
      const obs::TraceSpan span("schedule.tree", "count", 1);
      bg_scheds.push_back(std::make_unique<schedule::TreeSchedule>(
          g, *bg_parts.back(), params.mode));
      bg_sched_ptrs.push_back(bg_scheds.back().get());
    }
    counters.partitions += bg_reps;
    const std::uint32_t bg_hops = static_cast<std::uint32_t>(
        std::ceil(params.bg_curtail_constant * log_n / bg_beta));
    auto choose_bg = [bg_reps, bg_hops](NodeId, std::uint64_t pos) {
      core::WindowChoice w;
      w.sched_index = static_cast<std::uint32_t>(pos % bg_reps);
      w.pass_hops = bg_hops;
      return w;
    };
    core::PropagationEngine::Config bg_cfg;
    bg_cfg.graph = &g;
    bg_cfg.regions = bg_regions.get();
    bg_cfg.scheds = bg_sched_ptrs;
    bg_cfg.choose = choose_bg;
    bg_cfg.icp_background = params.enable_icp_background;
    bg_cfg.seed = rng();
    const obs::TraceSpan span("core.engine_init");
    bg_engine.emplace(bg_cfg);
  }

  const double bound = core::theory::bound_compete(
      n, std::max<std::uint32_t>(2, diameter), sources.size());
  const std::uint64_t budget = std::min<std::uint64_t>(
      params.max_rounds_abs,
      static_cast<std::uint64_t>(params.round_budget_factor * bound));

  util::Rng main_rng = rng.fork(1);
  util::Rng bg_rng = rng.fork(2);
  auto all_informed = [&] {
    return std::all_of(best.begin(), best.end(),
                       [winner](radio::Payload b) { return b == winner; });
  };
  std::uint64_t rounds = 0;
  bool done = false;
  {
    const obs::TraceSpan span("core.propagate");
    done = all_informed();
    std::uint32_t since_check = 0;
    while (!done && rounds < budget) {
      rounds += main_engine->step(best, main_rng);
      if (bg_engine) rounds += bg_engine->step(best, bg_rng);
      if (++since_check >= params.check_interval) {
        since_check = 0;
        done = all_informed();
      }
    }
    if (!done) done = all_informed();
  }

  out.success = done;
  out.rounds = rounds;
  out.informed = static_cast<std::uint32_t>(
      std::count(best.begin(), best.end(), winner));
  counters.rounds += rounds;
  counters.add_stats(main_engine->stats());
  if (bg_engine) counters.add_stats(bg_engine->stats());
  return out;
}

// ------------------------------------------------------------------- tasks

struct TaskResult {
  Elapsed time;
  std::vector<RepOutcome> reps;
  std::uint64_t failed = 0;
};

struct Bench {
  Options opt;
  Workload w;
  /// One job and one instance per Workload::instances.
  std::vector<exp::Job> jobs;
  std::vector<sim::Instance> insts;
  int lanes = 1;

  const sim::Instance& inst_of(int task) const {
    return insts.at(static_cast<std::size_t>(task % w.instances));
  }

  /// The seed of replication `j` of `task`.
  std::uint64_t rep_seed(int task, int j) const {
    const int block = task / w.instances;
    return util::mix_seed(jobs.at(static_cast<std::size_t>(task % w.instances)).seed,
                          static_cast<std::uint64_t>(block * w.reps_per_task + j));
  }

  /// Builds instance `k`, keeping the first build; `best` gets the time.
  void build_instance(int k, BestTimes& best) {
    const Stopwatch watch;
    sim::Instance inst =
        exp::build_instance(jobs.at(static_cast<std::size_t>(k)), 1);
    best.add(k, watch.elapsed());
    if (insts.size() == static_cast<std::size_t>(k)) {
      insts.push_back(std::move(inst));
    }
  }

  core::BatchedCompeteParams batch_params(const sim::Instance& inst) const {
    core::BatchedCompeteParams params;
    // exp::Planner's auto budget for a decay job.
    params.max_rounds =
        2000 + static_cast<std::uint64_t>(
                   8.0 * exp::theory_bound("decay", inst.g.node_count(),
                                           inst.diameter, 1));
    return params;
  }

  std::vector<std::uint64_t> batch_seeds(int task) const {
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      seeds[static_cast<std::size_t>(l)] = rep_seed(task, l);
    }
    return seeds;
  }

  static RepOutcome lane_outcome(const core::CompeteLaneResult& r) {
    return {r.success, r.rounds, r.informed, r.transmissions};
  }

  static bool lane_ok(const core::CompeteLaneResult& r,
                      const sim::Instance& inst) {
    return r.success && r.informed == inst.g.node_count() &&
           r.winner == kMessage;
  }

  /// Checks one cd/le replication: every node informed and, for LE, the
  /// leader one of the candidates the election drew.
  bool scalar_ok(const RepOutcome& r, const sim::Instance& inst,
                 std::uint64_t seed, std::uint32_t candidate_count) const {
    bool ok = r.success && r.informed == inst.g.node_count();
    if (w.kind == Kind::kLe) {
      util::Rng rng = le_rng(seed);
      const auto candidates =
          draw_candidates(inst.g, core::LeaderElectionParams{}, rng);
      ok = ok && candidates.size() == candidate_count &&
           std::any_of(candidates.begin(), candidates.end(),
                       [&r](const core::CompeteSource& c) {
                         return c.node == r.tag;
                       });
    }
    return ok;
  }

  /// One untraced library task. Only the library call is timed.
  TaskResult run_task(int task, bool tamper,
                      std::vector<core::CompeteLaneResult>* keep = nullptr) {
    TaskResult out;
    const sim::Instance& inst = inst_of(task);
    if (w.kind == Kind::kDecayLanes) {
      const auto seeds = batch_seeds(task);
      const auto params = batch_params(inst);
      const Stopwatch watch;
      radio::BatchNetwork bn(inst.g, lanes, radio::CollisionModel::kNoDetection,
                             radio::MediumKind::kBitslice,
                             radio::RecoveryStrategy::kAuto);
      auto results =
          core::compete_batched(bn, {{0, kMessage}}, params, seeds);
      out.time = watch.elapsed();
      if (tamper) --results[0].informed;
      for (const auto& r : results) {
        out.reps.push_back(lane_outcome(r));
        if (!lane_ok(r, inst)) ++out.failed;
      }
      if (keep != nullptr) *keep = std::move(results);
      return out;
    }
    std::vector<std::uint32_t> candidate_counts;
    const Stopwatch watch;
    for (int j = 0; j < w.reps_per_task; ++j) {
      const std::uint64_t seed = rep_seed(task, j);
      if (w.kind == Kind::kCd) {
        const auto b = core::broadcast(inst.g, inst.diameter, 0, kMessage,
                                       core::CompeteParams{}, seed);
        out.reps.push_back({b.success, b.rounds, b.informed, 0});
      } else {
        const auto e = core::elect_leader(inst.g, inst.diameter,
                                          core::LeaderElectionParams{}, seed);
        out.reps.push_back({e.success, e.rounds, e.agreeing, e.leader});
        candidate_counts.push_back(e.candidate_count);
      }
    }
    out.time = watch.elapsed();
    if (tamper) --out.reps[0].informed;
    for (int j = 0; j < w.reps_per_task; ++j) {
      const std::uint32_t count =
          w.kind == Kind::kLe ? candidate_counts[static_cast<std::size_t>(j)] : 0;
      if (!scalar_ok(out.reps[static_cast<std::size_t>(j)], inst,
                     rep_seed(task, j), count)) {
        ++out.failed;
      }
    }
    return out;
  }

  /// decay-lanes-gnp's determinism contract: lanes rerun alone through a
  /// 1-lane scalar radio::Network must match the batched lanes exactly.
  /// Returns how many of the two lanes differ.
  std::uint64_t scalar_recheck(
      const std::vector<core::CompeteLaneResult>& batch) const {
    std::uint64_t failed = 0;
    const sim::Instance& inst = inst_of(0);
    for (const int lane : {0, lanes - 1}) {
      const std::uint64_t seed = rep_seed(0, lane);
      radio::Network net(inst.g);
      const auto single = core::compete_batched(
          net, {{0, kMessage}}, batch_params(inst), std::span(&seed, 1));
      const auto& a = single.at(0);
      const auto& b = batch.at(static_cast<std::size_t>(lane));
      if (!(lane_outcome(a) == lane_outcome(b)) ||
          a.deliveries != b.deliveries || a.best != b.best) {
        ++failed;
      }
    }
    return failed;
  }
};

std::uint64_t radio_round_count() {
  auto& m = obs::Metrics::global();
  return m.histogram("radio.scalar.round_ns").count() +
         m.histogram("radio.bitslice.round_ns").count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ JSON output

class JsonLine {
 public:
  void num(const char* key, double v) { field(key) += util::json_number(v); }
  void str(const char* key, const std::string& v) {
    util::json_append_escaped(field(key), v);
  }
  void list(const char* key, const std::vector<double>& v) {
    std::string& out = field(key);
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += util::json_number(v[i]);
    }
    out += ']';
  }
  void object(const char* key, const std::map<std::string, double>& m) {
    std::string& out = field(key);
    out += '{';
    bool first = true;
    for (const auto& [k, v] : m) {
      if (!first) out += ',';
      first = false;
      util::json_append_escaped(out, k);
      out += ':';
      out += util::json_number(v);
    }
    out += '}';
  }
  std::string done() { return text_ + "}"; }

 private:
  std::string& field(const char* key) {
    text_ += text_.size() == 1 ? "" : ",";
    util::json_append_escaped(text_, key);
    text_ += ':';
    return text_;
  }
  std::string text_ = "{";
};

// -------------------------------------------------------------- the runs

/// Calls `round(r)` for r = 0, 1, ... while the next round is expected to
/// end within `seconds` (judged by the longest round so far), and at least
/// `min_rounds` times. Returns the number of rounds run.
template <typename Round>
int run_rounds(double seconds, int min_rounds, Round&& round) {
  const auto start = Clock::now();
  double longest_s = 0;
  int r = 0;
  for (;; ++r) {
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    if (r >= min_rounds && elapsed_s + longest_s > seconds) break;
    const auto t0 = Clock::now();
    round(r);
    longest_s = std::max(longest_s, ms_between(t0, Clock::now()) / 1000.0);
  }
  return r;
}

/// Builds per instance per round, the setup_s samples, where a round has
/// enough tasks (at most one build precedes a task).
constexpr int kBuildsPerRound = 1;

/// One untraced round of every task. Besides each instance's first build
/// (before its first task), builds of every instance are spaced evenly
/// between the tasks, so the setup samples spread over the whole run like
/// the task samples. `first_batch`, when given, receives task 0's lane
/// results in round 0.
void library_round(Bench& b, int round, OutcomeLog& log, BestTimes& setup,
                   BestTimes& best,
                   std::vector<core::CompeteLaneResult>* first_batch) {
  const int k_count = b.w.instances;
  const int step = std::max(1, b.w.tasks / (kBuildsPerRound * k_count));
  for (int t = 0; t < b.w.tasks; ++t) {
    if (b.insts.size() <= static_cast<std::size_t>(t % k_count)) {
      b.build_instance(t % k_count, setup);
    } else if (t % step == 0) {
      b.build_instance((t / step) % k_count, setup);
    }
    const bool first = round == 0 && t == 0;
    TaskResult r = b.run_task(t, b.opt.tamper && first,
                              first ? first_batch : nullptr);
    best.add(t, r.time);
    log.record(round, t, std::move(r.reps), r.failed);
  }
}

void emit_common(JsonLine& j, const Bench& b, const OutcomeLog& log,
                 int rounds) {
  std::vector<double> diameters;
  for (const auto& inst : b.insts) diameters.push_back(inst.diameter);
  j.str("workload", b.opt.workload);
  j.num("seed", static_cast<double>(b.opt.seed));
  j.num("n", b.insts.at(0).g.node_count());
  j.num("edges", static_cast<double>(b.insts.at(0).g.edge_count()));
  j.list("diameters", diameters);
  j.num("lanes", b.lanes);
  j.num("reps_per_task", b.w.reps_per_task);
  j.num("tasks", b.w.tasks);
  j.num("rounds", rounds);
  j.num("attempted", static_cast<double>(log.attempted));
  j.num("failed", static_cast<double>(log.failed));
  j.num("successes", static_cast<double>(log.successes()));
  j.num("rounds_mean", log.rounds_mean());
  j.str("digest", log.digest());
}

int run_untraced(Bench& b) {
  OutcomeLog log(b.w.tasks);
  BestTimes setup(b.w.instances);
  BestTimes tasks(b.w.tasks);
  std::vector<core::CompeteLaneResult> first_batch;
  const int rounds = run_rounds(b.opt.seconds, kMinRounds, [&](int r) {
    library_round(b, r, log, setup, tasks, &first_batch);
  });
  if (b.w.kind == Kind::kDecayLanes) {
    log.attempted += 2;
    log.failed += b.scalar_recheck(first_batch);
  }

  JsonLine j;
  emit_common(j, b, log, rounds);
  j.num("peak_rss_mb", peak_rss_mb());
  j.list("setup_ms", setup.cpu_ms);
  j.list("task_ms", tasks.cpu_ms);
  j.num("wall_total_ms", tasks.wall_total_ms + setup.wall_total_ms);
  j.num("cpu_total_ms", tasks.cpu_total_ms + setup.cpu_total_ms);
  std::cout << j.done() << std::endl;
  return 0;
}

/// What one traced round measured.
struct TracedRound {
  LayerCounters counters;
  radio::PhaseTimers phases;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t mirror_mismatches = 0;
  std::uint64_t dropped = 0;
  double gen_ms = 0;
  double diameter_ms = 0;
  std::vector<exp::TaskOutcome> journal_records;
};

void add_phases(radio::PhaseTimers& sum, const radio::PhaseTimers& p) {
  sum.traverse_ns += p.traverse_ns;
  sum.output_ns += p.output_ns;
  sum.recover_ns += p.recover_ns;
  sum.enqueue_ns += p.enqueue_ns;
  sum.drain_ns += p.drain_ns;
  sum.active_listeners += p.active_listeners;
  sum.rounds += p.rounds;
  sum.rowscan_rounds += p.rowscan_rounds;
  sum.idplane_rounds += p.idplane_rounds;
  sum.constfold_rounds += p.constfold_rounds;
}

/// Instance 0 built again layer by layer, for graph.gen / graph.diameter.
void traced_graph_build(const Bench& b, TracedRound& out) {
  const exp::Job& job = b.jobs.at(0);
  const Stopwatch gen_watch;
  graph::Graph g;
  {
    const obs::TraceSpan span("graph.gen");
    if (job.family == "gnp") {
      g = graph::pargen::gnp(job.n, std::min(1.0, job.param / job.n),
                             job.instance_seed, {.threads = 1});
    } else {
      g = graph::diameter_controlled(job.n, static_cast<NodeId>(job.param));
    }
  }
  out.gen_ms = gen_watch.elapsed().cpu_ms;
  const Stopwatch diameter_watch;
  std::uint32_t diameter = 0;
  {
    const obs::TraceSpan span("graph.diameter");
    diameter = graph::diameter_double_sweep(g);
  }
  out.diameter_ms = diameter_watch.elapsed().cpu_ms;
  const sim::Instance& inst = b.insts.at(0);
  if (g.edge_count() != inst.g.edge_count() || diameter != inst.diameter) {
    throw std::logic_error("layered graph build differs from build_instance");
  }
}

/// Every task once more with spans around each layer, into a fresh trace
/// at `trace_path` holding up to `capacity` events.
TracedRound traced_round(Bench& b, const OutcomeLog& log, BestTimes& best,
                         const std::string& trace_path, std::size_t capacity) {
  TracedRound out;
  obs::TraceSession& session = obs::TraceSession::global();
  session.start(trace_path, capacity);
  obs::set_thread_name("perfbench");
  traced_graph_build(b, out);
  for (int t = 0; t < b.w.tasks; ++t) {
    const sim::Instance& inst = b.inst_of(t);
    std::vector<RepOutcome> reps;
    const Stopwatch watch;
    if (b.w.kind == Kind::kDecayLanes) {
      const obs::TraceSpan task("task", "index", t);
      std::optional<radio::BatchNetwork> bn;
      {
        const obs::TraceSpan span("radio.network_init");
        bn.emplace(inst.g, b.lanes, radio::CollisionModel::kNoDetection,
                   radio::MediumKind::kBitslice, radio::RecoveryStrategy::kAuto);
      }
      std::vector<core::CompeteLaneResult> results;
      {
        const obs::TraceSpan span("core.compete_batched");
        results = core::compete_batched(*bn, {{0, kMessage}},
                                        b.batch_params(inst), b.batch_seeds(t));
      }
      add_phases(out.phases, bn->medium().phase_timers());
      out.deliveries += bn->total_deliveries();
      out.collisions += bn->total_collisions();
      for (const auto& r : results) reps.push_back(Bench::lane_outcome(r));
    } else {
      const obs::TraceSpan task("task", "index", t);
      for (int j = 0; j < b.w.reps_per_task; ++j) {
        const std::uint64_t seed = b.rep_seed(t, j);
        if (b.w.kind == Kind::kCd) {
          reps.push_back(mirror_compete(inst.g, inst.diameter, {{0, kMessage}},
                                        core::CompeteParams{}, seed,
                                        out.counters));
        } else {
          util::Rng rng = le_rng(seed);
          std::vector<core::CompeteSource> candidates;
          {
            const obs::TraceSpan span("core.le_candidates");
            candidates =
                draw_candidates(inst.g, core::LeaderElectionParams{}, rng);
          }
          out.counters.candidates += candidates.size();
          if (candidates.empty()) throw std::runtime_error("no LE candidates");
          RepOutcome r = mirror_compete(inst.g, inst.diameter, candidates,
                                        core::CompeteParams{}, rng(),
                                        out.counters);
          // elect_leader reports the winner's holder and how many agree.
          const auto top = std::max_element(
              candidates.begin(), candidates.end(),
              [](const auto& x, const auto& y) { return x.value < y.value; });
          r.tag = top->value & 0xFFFFFFFFu;
          r.success = r.success && r.tag < inst.g.node_count();
          reps.push_back(r);
        }
      }
    }
    const Elapsed time = watch.elapsed();
    best.add(t, time);
    if (log.reference.at(static_cast<std::size_t>(t)) != reps) {
      ++out.mirror_mismatches;
    }
    exp::TaskOutcome rec;
    for (const RepOutcome& r : reps) {
      exp::LaneOutcome lane;
      lane.success = r.success;
      lane.rounds = static_cast<double>(r.rounds);
      lane.informed = r.informed;
      rec.lanes.push_back(lane);
    }
    rec.wall_ms = time.wall_ms;
    rec.n_actual = inst.g.node_count();
    rec.diameter = inst.diameter;
    out.journal_records.push_back(std::move(rec));
  }
  out.dropped = session.dropped();
  session.stop_and_flush();
  return out;
}

/// exp layer: the crash-safe journal append (fsynced) of each task outcome.
std::vector<double> journal_us(const Bench& b,
                               const std::vector<exp::TaskOutcome>& records) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(b.opt.out_dir) / ("journal-" + b.opt.workload)).string();
  fs::create_directories(dir);
  std::vector<double> us;
  auto checkpoint = exp::Checkpoint::start(dir, b.w.spec, records.size());
  for (std::size_t t = 0; t < records.size(); ++t) {
    const auto t0 = Clock::now();
    checkpoint->record(t, records[t]);
    us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }
  checkpoint->remove_journal();
  fs::remove(dir);
  return us;
}

/// Pairs of rounds: the library calls untraced (the reference outcomes and
/// the tracing-overhead baseline), then the same tasks traced.
int run_traced(Bench& b) {
  namespace fs = std::filesystem;
  fs::create_directories(b.opt.out_dir);
  const std::string trace_path =
      (fs::path(b.opt.out_dir) / (b.opt.workload + ".trace.json")).string();

  BestTimes setup(b.w.instances);
  OutcomeLog log(b.w.tasks);
  BestTimes untraced(b.w.tasks);
  BestTimes traced(b.w.tasks);
  TracedRound last;
  const int pairs = run_rounds(b.opt.seconds, 1, [&](int pair) {
    const std::uint64_t rounds0 = radio_round_count();
    library_round(b, pair, log, setup, untraced, nullptr);
    // The traced round's spans must fit one ring: the radio spans the
    // untraced round counted, plus the benchmark's own handful per task.
    const std::size_t capacity = static_cast<std::size_t>(
        radio_round_count() - rounds0 + 256 * static_cast<std::uint64_t>(b.w.tasks) +
        4096);
    last = traced_round(b, log, traced, trace_path, capacity);
  });

  const TracedRound& t = last;
  std::map<std::string, double> c;
  c["rounds"] = static_cast<double>(t.counters.rounds);
  c["partitions"] = static_cast<double>(t.counters.partitions);
  c["wave_deliveries"] = static_cast<double>(t.counters.wave_deliveries);
  c["wave_blocked"] = static_cast<double>(t.counters.wave_blocked);
  c["decay_deliveries"] = static_cast<double>(t.counters.decay_deliveries);
  c["windows"] = static_cast<double>(t.counters.windows);
  c["candidates"] = static_cast<double>(t.counters.candidates);
  c["traverse_ns"] = static_cast<double>(t.phases.traverse_ns);
  c["output_ns"] = static_cast<double>(t.phases.output_ns);
  c["recover_ns"] = static_cast<double>(t.phases.recover_ns);
  c["medium_ns"] = static_cast<double>(t.phases.traverse_ns + t.phases.output_ns +
                                       t.phases.recover_ns + t.phases.enqueue_ns +
                                       t.phases.drain_ns);
  c["medium_rounds"] = static_cast<double>(t.phases.rounds);
  c["active_listeners"] = static_cast<double>(t.phases.active_listeners);
  c["idplane_rounds"] = static_cast<double>(t.phases.idplane_rounds);
  c["rowscan_rounds"] = static_cast<double>(t.phases.rowscan_rounds);
  c["constfold_rounds"] = static_cast<double>(t.phases.constfold_rounds);
  c["deliveries"] = static_cast<double>(t.deliveries);
  c["collisions"] = static_cast<double>(t.collisions);

  JsonLine j;
  emit_common(j, b, log, pairs);
  j.num("peak_rss_mb", peak_rss_mb());
  j.list("task_ms", untraced.cpu_ms);
  j.list("traced_task_ms", traced.cpu_ms);
  j.num("graph_gen_ms", t.gen_ms);
  j.num("graph_diameter_ms", t.diameter_ms);
  j.str("trace_file", trace_path);
  j.num("dropped_events", static_cast<double>(t.dropped));
  j.num("mirror_mismatches", static_cast<double>(t.mirror_mismatches));
  j.list("journal_us", journal_us(b, t.journal_records));
  j.object("counters", c);
  std::cout << j.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Bench b;
    b.opt = parse_options(argc, argv);
    b.w = make_workload(b.opt);
    for (int k = 0; k < b.w.instances; ++k) {
      exp::SweepSpec spec = b.w.spec;
      spec.seed = util::mix_seed(b.opt.seed, static_cast<std::uint64_t>(k));
      b.jobs.push_back(exp::expand(spec).at(0));
    }
    b.lanes = b.jobs.at(0).lane_width;
    return b.opt.trace ? run_traced(b) : run_untraced(b);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
