#include "exp/report.hpp"

#include <filesystem>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/fsio.hpp"

namespace radiocast::exp {

namespace {

/// Resolves <out_dir>/<filename>, creating the directory; throws on
/// failure (an unwritable report directory is a run-fatal condition).
std::string prepare_path(const std::string& out_dir,
                         const std::string& filename) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    throw std::runtime_error("report: cannot create " + out_dir + ": " +
                             ec.message());
  }
  return (std::filesystem::path(out_dir) / filename).string();
}

/// Atomic durable write shared by both emitters; throws so a failed
/// report surfaces as a nonzero driver exit instead of a log line.
void commit_file(const std::string& path, std::string_view content) {
  std::string error;
  if (!util::atomic_write_file(path, content, error)) {
    throw std::runtime_error("report: cannot write " + path + ": " + error);
  }
}

}  // namespace

std::string Report::write_csv(const std::string& name,
                              const util::Table& table,
                              std::ostream& log) const {
  if (!enabled()) return "";
  const std::string path = prepare_path(out_dir_, name + ".csv");
  commit_file(path, table.to_csv());
  log << "[csv] " << path << "\n";
  return path;
}

std::string Report::write_json(const std::string& name, util::Json payload,
                               std::ostream& log) const {
  if (!enabled()) return "";
  util::Json document = std::move(payload);
  document.prepend("version", kSchemaVersion);
  const std::string path = prepare_path(out_dir_, name + ".json");
  commit_file(path, document.dump(2));
  log << "[json] " << path << "\n";
  return path;
}

// ------------------------------------------------------------ long format

namespace {

std::string param_cell(const Job& job) {
  if (job.param_name.empty()) return "-";
  return job.param_name + "=" + util::json_number(job.param);
}

/// Sender recovery only applies to lane-batched jobs ("" otherwise).
std::string recovery_name(const Job& job) {
  return job.lane_width > 1 ? std::string(radio::to_string(job.recovery))
                            : "";
}

}  // namespace

std::vector<std::string> long_headers(bool timing) {
  std::vector<std::string> headers{
      "family",      "param",      "n",          "D",
      "protocol",    "medium",     "recovery",   "lanes",
      "reps",        "ok",         "rate",       "wilson_lo",
      "wilson_hi",   "rounds",     "sd",         "min",
      "med",         "p95",        "max",        "deliv",
      "bound",       "x_bound"};
  if (timing) {
    headers.insert(headers.end(),
                   {"wall_ms", "traverse_ms", "output_ms", "recover_ms",
                    "gen_ms", "gen_hits", "gen_miss"});
  }
  return headers;
}

void add_long_row(util::Table& table, const PointResult& point, bool timing) {
  const Job& job = point.job;
  const Accumulator& acc = point.acc;
  const std::string recovery = recovery_name(job);
  const util::WilsonInterval wilson = acc.wilson();
  auto& row = table.row()
                  .add(job.family)
                  .add(param_cell(job))
                  .add(std::uint64_t{point.n_actual})
                  .add(std::uint64_t{point.diameter})
                  .add(job.protocol)
                  .add(std::string(radio::to_string(job.medium)))
                  .add(recovery.empty() ? "-" : recovery)
                  .add(job.lane_width)
                  .add(static_cast<std::uint64_t>(acc.trials()))
                  .add(static_cast<std::uint64_t>(acc.successes()))
                  .add(acc.success_rate(), 3)
                  .add(wilson.lo, 3)
                  .add(wilson.hi, 3)
                  .add(acc.rounds().mean(), 1)
                  .add(acc.rounds().stddev(), 1)
                  .add(acc.rounds().min(), 0)
                  .add(acc.rounds_median(), 1)
                  .add(acc.rounds_p95(), 1)
                  .add(acc.rounds().max(), 0)
                  .add(acc.deliveries().count() > 0 ? acc.deliveries().mean()
                                                    : 0.0,
                       0)
                  .add(acc.theory_bound(), 0)
                  .add(acc.rounds_over_bound(), 3);
  if (timing) {
    row.add(acc.wall_ms(), 1)
        .add(static_cast<double>(acc.phases().traverse_ns) / 1e6, 1)
        .add(static_cast<double>(acc.phases().output_ns) / 1e6, 1)
        .add(static_cast<double>(acc.phases().recover_ns) / 1e6, 1)
        .add(static_cast<double>(point.gen.gen_ns) / 1e6, 1)
        .add(point.gen.cache_hits)
        .add(point.gen.cache_misses);
  }
}

util::Json point_json(const PointResult& point, bool timing) {
  const Job& job = point.job;
  const Accumulator& acc = point.acc;
  const util::WilsonInterval wilson = acc.wilson();
  util::Json j = util::Json::object();
  j.set("family", job.family);
  j.set("param_name", job.param_name);
  j.set("param", job.param);
  j.set("n", std::uint64_t{point.n_actual});
  j.set("diameter", std::uint64_t{point.diameter});
  j.set("protocol", job.protocol);
  j.set("medium", radio::to_string(job.medium));
  j.set("recovery", recovery_name(job));
  j.set("lanes", job.lane_width);
  j.set("reps", static_cast<std::uint64_t>(acc.trials()));
  j.set("successes", static_cast<std::uint64_t>(acc.successes()));
  j.set("success_rate", acc.success_rate());
  j.set("wilson_lo", wilson.lo);
  j.set("wilson_hi", wilson.hi);
  util::Json rounds = util::Json::object();
  rounds.set("mean", acc.rounds().mean());
  rounds.set("stddev", acc.rounds().stddev());
  rounds.set("min", acc.rounds().min());
  rounds.set("median", acc.rounds_median());
  rounds.set("p95", acc.rounds_p95());
  rounds.set("max", acc.rounds().max());
  j.set("rounds", std::move(rounds));
  j.set("deliveries_mean",
        acc.deliveries().count() > 0 ? acc.deliveries().mean() : 0.0);
  j.set("transmissions_mean",
        acc.transmissions().count() > 0 ? acc.transmissions().mean() : 0.0);
  j.set("informed_mean",
        acc.informed().count() > 0 ? acc.informed().mean() : 0.0);
  util::Json theory = util::Json::object();
  theory.set("bound", acc.theory_bound());
  theory.set("rounds_over_bound", acc.rounds_over_bound());
  j.set("theory", std::move(theory));
  if (timing) {
    util::Json t = util::Json::object();
    t.set("wall_ms", acc.wall_ms());
    t.set("traverse_ns", static_cast<std::uint64_t>(acc.phases().traverse_ns));
    t.set("output_ns", static_cast<std::uint64_t>(acc.phases().output_ns));
    t.set("recover_ns", static_cast<std::uint64_t>(acc.phases().recover_ns));
    t.set("enqueue_ns", static_cast<std::uint64_t>(acc.phases().enqueue_ns));
    t.set("drain_ns", static_cast<std::uint64_t>(acc.phases().drain_ns));
    t.set("active_listeners",
          static_cast<std::uint64_t>(acc.phases().active_listeners));
    t.set("rowscan_rounds",
          static_cast<std::uint64_t>(acc.phases().rowscan_rounds));
    t.set("idplane_rounds",
          static_cast<std::uint64_t>(acc.phases().idplane_rounds));
    t.set("constfold_rounds",
          static_cast<std::uint64_t>(acc.phases().constfold_rounds));
    t.set("gen_ns", point.gen.gen_ns);
    t.set("cache_hits", point.gen.cache_hits);
    t.set("cache_misses", point.gen.cache_misses);
    j.set("timing", std::move(t));
  }
  return j;
}

util::Json sweep_json(const SweepSpec& spec,
                      const std::vector<PointResult>& results, bool timing,
                      const std::vector<QuarantinedTask>* quarantined) {
  util::Json j = util::Json::object();
  j.set("kind", "sweep");
  j.set("spec", spec.to_json());
  if (quarantined != nullptr && !quarantined->empty()) {
    util::Json list = util::Json::array();
    for (const QuarantinedTask& q : *quarantined) {
      util::Json entry = util::Json::object();
      entry.set("task", util::json_uint(q.task));
      entry.set("job", q.job_label);
      entry.set("first_rep", q.first_rep);
      entry.set("reps", q.count);
      entry.set("error", q.error);
      list.push_back(std::move(entry));
    }
    j.set("quarantined", std::move(list));
  }
  if (timing) {
    // Grid-wide instance-cache rollup: one glance says whether generation
    // was amortised (hits) or on the critical path (misses).
    std::uint64_t hits = 0, misses = 0;
    for (const PointResult& point : results) {
      hits += point.gen.cache_hits;
      misses += point.gen.cache_misses;
    }
    util::Json cache = util::Json::object();
    cache.set("hits", hits);
    cache.set("misses", misses);
    j.set("cache", std::move(cache));
    j.set("metrics", obs::Metrics::global().snapshot_json());
  }
  util::Json points = util::Json::array();
  for (const PointResult& point : results) {
    points.push_back(point_json(point, timing));
  }
  j.set("points", std::move(points));
  return j;
}

}  // namespace radiocast::exp
