// Scenario registry for the unified experiment driver.
//
// Every experiment ("scenario") registers itself by name with a one-line
// description and a run function; the `radiocast_bench` binary dispatches
// `radiocast_bench <scenario> [flags]` through the registry, so adding a
// workload is a ~50-line registration in bench/ instead of a new binary.
// Registration happens at static-initialisation time via the
// RADIOCAST_SCENARIO macro; scenarios are compiled directly into the
// driver executable so no linker tricks are needed to keep them alive.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "radio/medium.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace radiocast::sim {

class Runner;

/// One replication's machine-readable result, recorded by scenarios that
/// opt into the JSON perf trajectory (bench_out/<scenario>.json).
struct ReplicationRecord {
  std::string label;  // sweep point / backend the replication belongs to
  int rep = 0;
  double rounds = 0.0;
  double deliveries = 0.0;
  double wall_ms = 0.0;
  std::string medium;  // radio backend that resolved it ("" = unspecified)
  int lanes = 1;       // replication lanes it shared its traversals with
  /// Sender-recovery strategy the medium ran with ("" = not applicable,
  /// e.g. mask-only workloads or backends without the knob).
  std::string recovery;
  /// Per-phase medium time attributed to this replication (its share of
  /// the batch's radio::PhaseTimers), so the JSON trajectory shows where
  /// a round goes: kernel traversal vs output scan vs sender recovery.
  double phase_traverse_ns = 0.0;
  double phase_output_ns = 0.0;
  double phase_recover_ns = 0.0;
  /// Woken listeners attributed to this replication (its share of the
  /// medium's PhaseTimers active_listeners rollup) — the O(active) cost
  /// evidence for sparse rounds; 0 on backends that don't track the
  /// active set.
  double active_listeners = 0.0;
};

/// Everything a scenario needs at run time: parsed flags, the shared
/// replication runner, and the output sinks (stdout stream + CSV dir).
/// Tests substitute their own stream / disable CSV by leaving out_dir
/// empty.
struct ScenarioContext {
  ScenarioContext(const util::Cli& cli, Runner& runner);

  const util::Cli& cli;
  Runner& runner;
  /// Destination for tables and notes (defaults to std::cout).
  std::ostream* out;
  /// Directory for CSV dumps; empty disables CSV emission.
  std::string out_dir = "bench_out";

  bool quick() const;
  /// --seed, or `fallback` when absent (scenarios keep their historical
  /// per-experiment default seeds).
  std::uint64_t seed(std::uint64_t fallback) const;
  /// --reps, or the quick/full default.
  int reps(int quick_default, int full_default) const;

  /// --medium flag: which radio backend medium-aware scenarios should
  /// drive (scalar when absent). Throws on an unknown name, listing the
  /// valid backends.
  radio::MediumKind medium_kind() const;

  /// --gen-threads flag: worker count for the parallel graph-generation
  /// pool (graph::pargen). Absent = 0 (pargen default: the
  /// RADIOCAST_GEN_THREADS env, else hardware); when given it must be a
  /// positive integer — non-numeric or zero values throw instead of
  /// silently degrading. Never changes generated bytes, only build speed.
  int gen_threads() const;

  /// --recovery flag: sender-recovery strategy for batch media (auto when
  /// absent). Throws on an unknown name, listing the valid strategies.
  radio::RecoveryStrategy recovery_strategy() const;

  /// Prints the table with a title banner and, when out_dir is non-empty,
  /// writes `<out_dir>/<csv_name>.csv` through the exp::Report sink.
  void emit(const util::Table& table, const std::string& title,
            const std::string& csv_name);
  /// Writes `<out_dir>/<name>.json` through the exp::Report sink (schema
  /// "version" field prepended; no-op returning "" when out_dir is
  /// empty). For scenarios that build structured documents beyond the
  /// per-replication records. Taken by value — move it in.
  std::string emit_json(const std::string& name, util::Json payload);
  /// Prints a free-form note line after a table.
  void note(const std::string& line);

  /// Thread-safe: replication bodies running on the Runner pool call this
  /// to add a row to the scenario's JSON dump.
  void record(ReplicationRecord r);

  /// Writes `<out_dir>/<scenario>.json` with the driver-measured total
  /// wall time and all recorded replications (sorted by label then rep, so
  /// the file is deterministic for any --threads). Called by the driver
  /// after the scenario returns; no-op returning "" when out_dir is empty
  /// or when the scenario already emitted a document under that name via
  /// emit_json (sweep owns bench_out/sweep.json; the driver must not
  /// clobber it).
  std::string write_json(const std::string& scenario_name,
                         double wall_ms_total);

 private:
  std::mutex record_mutex_;
  std::vector<ReplicationRecord> records_;
  /// JSON names already written through emit_json this run.
  std::vector<std::string> emitted_json_;
};

using ScenarioFn = std::function<void(ScenarioContext&)>;

struct Scenario {
  std::string name;
  std::string description;
  ScenarioFn run;
};

/// Name -> scenario map. Instantiable for tests; the driver and the
/// RADIOCAST_SCENARIO macro use the process-wide global() instance.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& global();

  /// Throws std::invalid_argument on empty/duplicate names or missing run
  /// function.
  void add(Scenario scenario);
  /// nullptr when absent.
  const Scenario* find(const std::string& name) const;
  /// All scenarios, name-sorted.
  std::vector<const Scenario*> list() const;
  std::size_t size() const { return scenarios_.size(); }

  /// Dispatches to the named scenario; throws std::invalid_argument with
  /// the list of known names on an unknown scenario.
  void run(const std::string& name, ScenarioContext& ctx) const;

 private:
  std::map<std::string, Scenario> scenarios_;
};

/// Registers into ScenarioRegistry::global() at static-init time.
struct ScenarioRegistration {
  ScenarioRegistration(std::string name, std::string description,
                       ScenarioFn fn);
};

}  // namespace radiocast::sim

/// Defines and registers a scenario run function:
///   RADIOCAST_SCENARIO(my_exp, "my-exp", "what it measures") {
///     ctx.emit(...);
///   }
#define RADIOCAST_SCENARIO(ident, name, description)                        \
  static void radiocast_scenario_##ident(::radiocast::sim::ScenarioContext& \
                                             ctx);                          \
  static const ::radiocast::sim::ScenarioRegistration                       \
      radiocast_scenario_reg_##ident{name, description,                     \
                                     &radiocast_scenario_##ident};          \
  static void radiocast_scenario_##ident(                                   \
      [[maybe_unused]] ::radiocast::sim::ScenarioContext& ctx)
