#include "sim/scenario.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/report.hpp"
#include "obs/metrics.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace radiocast::sim {

ScenarioContext::ScenarioContext(const util::Cli& cli_in, Runner& runner_in)
    : cli(cli_in), runner(runner_in), out(&std::cout) {}

bool ScenarioContext::quick() const { return cli.get_bool("quick", false); }

std::uint64_t ScenarioContext::seed(std::uint64_t fallback) const {
  return cli.get_uint("seed", fallback);
}

int ScenarioContext::reps(int quick_default, int full_default) const {
  return static_cast<int>(cli.get_uint(
      "reps",
      static_cast<std::uint64_t>(quick() ? quick_default : full_default)));
}

void ScenarioContext::emit(const util::Table& table, const std::string& title,
                           const std::string& csv_name) {
  table.print(*out, title);
  exp::Report(out_dir).write_csv(csv_name, table, *out);
}

std::string ScenarioContext::emit_json(const std::string& name,
                                       util::Json payload) {
  emitted_json_.push_back(name);
  return exp::Report(out_dir).write_json(name, std::move(payload), *out);
}

void ScenarioContext::note(const std::string& line) { *out << line << "\n"; }

radio::MediumKind ScenarioContext::medium_kind() const {
  return radio::parse_medium_kind(cli.get_choice(
      "medium", "scalar",
      std::span<const std::string_view>(radio::kMediumNames)));
}

int ScenarioContext::gen_threads() const {
  if (!cli.has("gen-threads")) return 0;
  return util::parse_positive_int(cli.get_string("gen-threads", ""),
                                  "flag --gen-threads");
}

radio::RecoveryStrategy ScenarioContext::recovery_strategy() const {
  return radio::parse_recovery_strategy(cli.get_choice(
      "recovery", "auto",
      std::span<const std::string_view>(radio::kRecoveryNames)));
}

void ScenarioContext::record(ReplicationRecord r) {
  std::lock_guard<std::mutex> lock(record_mutex_);
  records_.push_back(std::move(r));
}

std::string ScenarioContext::write_json(const std::string& scenario_name,
                                        double wall_ms_total) {
  if (std::find(emitted_json_.begin(), emitted_json_.end(), scenario_name) !=
      emitted_json_.end()) {
    return "";  // the scenario owns this file (e.g. sweep.json)
  }
  std::vector<ReplicationRecord> records;
  {
    std::lock_guard<std::mutex> lock(record_mutex_);
    records = records_;
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const ReplicationRecord& a, const ReplicationRecord& b) {
                     return a.label != b.label ? a.label < b.label
                                               : a.rep < b.rep;
                   });
  util::Json payload = util::Json::object();
  // Wall clocks, phase timers and the metrics snapshot are timing: gated
  // behind the same flag the sweep reports use, so --timing=off stays
  // byte-stable.
  const bool timing = cli.get_bool("timing", true);
  payload.set("scenario", scenario_name);
  if (timing) payload.set("wall_ms_total", wall_ms_total);
  util::Json replications = util::Json::array();
  for (const ReplicationRecord& r : records) {
    util::Json row = util::Json::object();
    row.set("label", r.label);
    row.set("rep", r.rep);
    row.set("rounds", r.rounds);
    row.set("deliveries", r.deliveries);
    if (timing) row.set("wall_ms", r.wall_ms);
    row.set("medium", r.medium);
    row.set("lanes", r.lanes);
    row.set("recovery", r.recovery);
    if (timing) {
      row.set("phase_traverse_ns", r.phase_traverse_ns);
      row.set("phase_output_ns", r.phase_output_ns);
      row.set("phase_recover_ns", r.phase_recover_ns);
    }
    row.set("active_listeners", r.active_listeners);
    replications.push_back(std::move(row));
  }
  payload.set("replications", std::move(replications));
  if (timing) payload.set("metrics", obs::Metrics::global().snapshot_json());
  // Not via emit_json: this IS the driver's fallback write, and it must
  // not mark the name as scenario-owned.
  return exp::Report(out_dir).write_json(scenario_name, std::move(payload),
                                         *out);
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) {
    throw std::invalid_argument("scenario name must be non-empty");
  }
  if (!scenario.run) {
    throw std::invalid_argument("scenario '" + scenario.name +
                                "' has no run function");
  }
  std::string name = scenario.name;
  const auto [it, inserted] = scenarios_.emplace(name, std::move(scenario));
  (void)it;
  if (!inserted) {
    throw std::invalid_argument("duplicate scenario name '" + name + "'");
  }
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) out.push_back(&scenario);
  return out;
}

void ScenarioRegistry::run(const std::string& name,
                           ScenarioContext& ctx) const {
  const Scenario* s = find(name);
  if (s == nullptr) {
    std::ostringstream msg;
    msg << "unknown scenario '" << name << "'; known scenarios:";
    for (const auto& [known, scenario] : scenarios_) {
      (void)scenario;
      msg << " " << known;
    }
    throw std::invalid_argument(msg.str());
  }
  s->run(ctx);
}

ScenarioRegistration::ScenarioRegistration(std::string name,
                                           std::string description,
                                           ScenarioFn fn) {
  ScenarioRegistry::global().add(
      Scenario{std::move(name), std::move(description), std::move(fn)});
}

}  // namespace radiocast::sim
