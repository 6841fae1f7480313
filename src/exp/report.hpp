// The one bench_out sink: every file the harness emits — per-scenario CSV
// tables, the per-scenario replication JSON, and the sweep grid reports —
// goes through Report, so directory handling, schema versioning, and key
// order are decided in exactly one place.
//
// JSON payloads are emitted with a leading "version" field
// (kSchemaVersion) and insertion-ordered keys (util::Json), so files are
// diffable and downstream consumers can check the schema before parsing.
// The long-format helpers render one sweep grid point per row, with the
// timing columns (wall clock, medium phase rollups) split out behind a
// flag: everything except timing is byte-deterministic for a fixed spec,
// and `--timing=off` produces fully byte-identical files across thread
// counts and machines.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/planner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace radiocast::exp {

/// Schema version stamped into every emitted JSON document.
/// v2: timing blocks gained the sparse-list phase counters (enqueue_ns,
/// drain_ns) and active_listeners; per-replication rows gained
/// active_listeners.
/// v3: timing blocks gained the work-stealing pool counters
/// (steal_attempts, steals, idle_ns); timing-enabled sweep documents
/// gained a grid-wide "pool" rollup and the obs::Metrics "metrics"
/// snapshot.
/// v4: the pool no longer steals, so its counters and the "pool" rollup
/// are gone.
/// --timing=off output is unchanged from v2 except the version stamp.
inline constexpr int kSchemaVersion = 4;

class Report {
 public:
  /// `out_dir` empty constructs a DISABLED report: write_* return ""
  /// without touching the filesystem. Callers that require durable
  /// output (the sweep checkpoint path) must check enabled() up front
  /// instead of discovering "" afterwards.
  explicit Report(std::string out_dir) : out_dir_(std::move(out_dir)) {}

  bool enabled() const { return !out_dir_.empty(); }
  const std::string& out_dir() const { return out_dir_; }

  /// Writes <out_dir>/<name>.csv atomically (<path>.tmp + fsync +
  /// rename — a crash never leaves a torn report); logs "[csv] path" to
  /// `log`. Returns the path, or "" when disabled. THROWS
  /// std::runtime_error on I/O failure: a report the harness claims to
  /// have written must exist, so failures surface as a nonzero driver
  /// exit, not a log line.
  std::string write_csv(const std::string& name, const util::Table& table,
                        std::ostream& log) const;

  /// Writes <out_dir>/<name>.json atomically (same contract as
  /// write_csv). `payload` must be an object; a "version": kSchemaVersion
  /// field is prepended (an existing "version" member is overridden).
  /// Taken by value — move it in; large sweep documents are stamped in
  /// place, not cloned. Logs "[json] path" to `log`; throws
  /// std::runtime_error on I/O failure.
  std::string write_json(const std::string& name, util::Json payload,
                         std::ostream& log) const;

 private:
  std::string out_dir_;
};

/// Long-format column set; `timing` appends the wall/phase columns plus
/// the instance-generation columns (gen_ms, gen_hits, gen_miss).
std::vector<std::string> long_headers(bool timing);
/// Renders one grid point as a long-format row (table and CSV share it).
void add_long_row(util::Table& table, const PointResult& point, bool timing);
/// One grid point as a JSON object (same fields as the row, nested). With
/// timing on, the timing block also carries the point's gen_ns /
/// cache_hits / cache_misses.
util::Json point_json(const PointResult& point, bool timing);

/// The sweep report document: {kind, spec echo, points[]} (version is
/// prepended by Report::write_json). When `quarantined` is non-null and
/// non-empty, a "quarantined" array records every poisoned task's grid
/// coordinate and error — the sweep completed around them, and the
/// document says so instead of silently thinning the statistics.
util::Json sweep_json(const SweepSpec& spec,
                      const std::vector<PointResult>& results, bool timing,
                      const std::vector<QuarantinedTask>* quarantined =
                          nullptr);

}  // namespace radiocast::exp
