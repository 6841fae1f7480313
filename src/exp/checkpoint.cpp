#include "exp/checkpoint.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <atomic>

#include "exp/fault.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace radiocast::exp {

// ----------------------------------------------------------- shutdown

namespace {

std::atomic<bool> g_shutdown{false};

extern "C" void on_drain_signal(int) { g_shutdown.store(true); }

}  // namespace

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = on_drain_signal;
  sigemptyset(&action.sa_mask);
  // One-shot: the handler resets to default, so a second ^C kills a
  // sweep that is stuck inside a task instead of being swallowed.
  action.sa_flags = SA_RESETHAND;
  (void)sigaction(SIGINT, &action, nullptr);
  (void)sigaction(SIGTERM, &action, nullptr);
}

bool shutdown_requested() { return g_shutdown.load(); }
void request_shutdown() { g_shutdown.store(true); }
void clear_shutdown() { g_shutdown.store(false); }

// -------------------------------------------------------- journal text

namespace {

// v3: the positional phases array dropped v2's three work-stealing pool
// counters (steal_attempts, steals, idle_ns). Version mismatches reject
// loudly — a journal is transient state, never migrated in place.
constexpr int kJournalVersion = 3;
constexpr std::size_t kPhaseCounters = 10;

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// NaN-tolerant double field: Json dumps NaN as null, so read null back
/// as the Accumulator's "absent" NaN.
double json_as_metric(const util::Json& value) {
  if (value.is_null()) return Accumulator::kAbsent;
  return value.as_number();
}

const util::Json& field(const util::Json& j, const char* key) {
  const util::Json* value = j.find(key);
  if (value == nullptr) {
    throw std::invalid_argument("missing field '" + std::string(key) + "'");
  }
  return *value;
}

util::Json outcome_to_json(std::size_t task, const TaskOutcome& out) {
  util::Json j = util::Json::object();
  j.set("task", util::json_uint(task));
  if (out.quarantined) {
    j.set("quarantined", util::Json(true));
    j.set("error", util::Json(out.error));
    return j;
  }
  j.set("n", util::json_uint(out.n_actual));
  j.set("diameter", util::json_uint(out.diameter));
  j.set("gen_ns", util::json_uint(out.gen_ns));
  j.set("wall_ms", util::Json(out.wall_ms));
  util::Json phases = util::Json::array();
  const std::uint64_t counters[kPhaseCounters] = {
      out.phases.traverse_ns,  out.phases.output_ns,
      out.phases.recover_ns,   out.phases.enqueue_ns,
      out.phases.drain_ns,     out.phases.active_listeners,
      out.phases.rounds,       out.phases.rowscan_rounds,
      out.phases.idplane_rounds, out.phases.constfold_rounds};
  for (const std::uint64_t c : counters) phases.push_back(util::json_uint(c));
  j.set("phases", std::move(phases));
  util::Json lanes = util::Json::array();
  for (const LaneOutcome& lane : out.lanes) {
    util::Json row = util::Json::array();
    row.push_back(util::Json(lane.success));
    row.push_back(util::Json(lane.rounds));
    row.push_back(util::Json(lane.informed));
    row.push_back(util::Json(lane.deliveries));
    row.push_back(util::Json(lane.transmissions));
    lanes.push_back(std::move(row));
  }
  j.set("lanes", std::move(lanes));
  return j;
}

TaskOutcome outcome_from_json(const util::Json& j, std::size_t& task) {
  if (!j.is_object()) throw std::invalid_argument("record is not an object");
  task = static_cast<std::size_t>(util::json_as_uint(field(j, "task"), "task"));
  TaskOutcome out;
  if (j.find("quarantined") != nullptr) {
    out.quarantined = field(j, "quarantined").as_bool();
    out.error = field(j, "error").as_string();
    return out;
  }
  out.n_actual =
      static_cast<std::uint32_t>(util::json_as_uint(field(j, "n"), "n"));
  out.diameter = static_cast<std::uint32_t>(
      util::json_as_uint(field(j, "diameter"), "diameter"));
  out.gen_ns = util::json_as_uint(field(j, "gen_ns"), "gen_ns");
  out.wall_ms = field(j, "wall_ms").as_number();
  const util::Json& phases = field(j, "phases");
  if (!phases.is_array() || phases.items().size() != kPhaseCounters) {
    throw std::invalid_argument("bad phases array");
  }
  std::uint64_t* counters[kPhaseCounters] = {
      &out.phases.traverse_ns,  &out.phases.output_ns,
      &out.phases.recover_ns,   &out.phases.enqueue_ns,
      &out.phases.drain_ns,     &out.phases.active_listeners,
      &out.phases.rounds,       &out.phases.rowscan_rounds,
      &out.phases.idplane_rounds, &out.phases.constfold_rounds};
  for (std::size_t i = 0; i < kPhaseCounters; ++i) {
    *counters[i] = util::json_as_uint(phases.items()[i], "phase counter");
  }
  for (const util::Json& row : field(j, "lanes").items()) {
    if (!row.is_array() || row.items().size() != 5) {
      throw std::invalid_argument("bad lane row");
    }
    LaneOutcome lane;
    lane.success = row.items()[0].as_bool();
    lane.rounds = row.items()[1].as_number();
    lane.informed = json_as_metric(row.items()[2]);
    lane.deliveries = json_as_metric(row.items()[3]);
    lane.transmissions = json_as_metric(row.items()[4]);
    out.lanes.push_back(lane);
  }
  return out;
}

std::string journal_line(char tag, const std::string& json) {
  std::string line(1, tag);
  line += ' ';
  line += hex16(fnv1a64(json));
  line += ' ';
  line += json;
  line += '\n';
  return line;
}

/// Splits "X <crc> <json>", verifying the crc. Returns false (instead of
/// throwing) so the caller can apply the torn-final-line tolerance.
bool parse_line(std::string_view line, char& tag, std::string& json) {
  if (line.size() < 19 || line[1] != ' ' || line[18] != ' ') return false;
  tag = line[0];
  const std::string_view crc = line.substr(2, 16);
  json.assign(line.substr(19));
  return hex16(fnv1a64(json)) == crc;
}

util::Json journal_header(const SweepSpec& spec, std::size_t task_count) {
  util::Json j = util::Json::object();
  j.set("kind", util::Json(std::string("sweep-journal")));
  j.set("version", util::Json(kJournalVersion));
  j.set("fingerprint", util::Json(spec_fingerprint(spec)));
  j.set("tasks", util::json_uint(task_count));
  return j;
}

}  // namespace

std::string spec_fingerprint(const SweepSpec& spec) {
  return hex16(fnv1a64(spec.to_json().dump(-1)));
}

// ----------------------------------------------------------- Checkpoint

std::string Checkpoint::journal_path(const std::string& dir) {
  return dir + "/sweep.journal";
}

std::unique_ptr<Checkpoint> Checkpoint::start(const std::string& dir,
                                              const SweepSpec& spec,
                                              std::size_t task_count) {
  auto cp = std::unique_ptr<Checkpoint>(new Checkpoint());
  cp->path_ = journal_path(dir);
  cp->replayed_.resize(task_count);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: cannot create " + dir + ": " +
                             ec.message());
  }
  std::string error;
  if (!cp->file_.open(cp->path_, /*truncate=*/true, error)) {
    throw std::runtime_error("checkpoint: cannot open journal " + cp->path_ +
                             ": " + error);
  }
  const std::string line =
      journal_line('H', journal_header(spec, task_count).dump(-1));
  if (!cp->file_.append_fsync(line, error)) {
    throw std::runtime_error("checkpoint: cannot write journal header: " +
                             error);
  }
  return cp;
}

std::unique_ptr<Checkpoint> Checkpoint::resume(const std::string& dir,
                                               const SweepSpec& spec,
                                               std::size_t task_count) {
  auto cp = std::unique_ptr<Checkpoint>(new Checkpoint());
  cp->path_ = journal_path(dir);
  cp->replayed_.resize(task_count);

  std::ifstream in(cp->path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error(
        "checkpoint: no journal at " + cp->path_ +
        " — was this sweep started with reports enabled (--out)?");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Complete lines only: a crash mid-append leaves an unterminated tail,
  // which is exactly the data the dead run never counted as done.
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(std::string_view(text).substr(start, i - start));
      start = i + 1;
    }
  }

  bool saw_header = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    char tag = 0;
    std::string json;
    const auto reject = [&](const std::string& why) -> bool {
      // A damaged FINAL line is a torn append (no fsync ran): drop it,
      // the task will simply re-run. Interior damage is real corruption.
      if (last && saw_header) return true;
      throw std::runtime_error("checkpoint: corrupt journal " + cp->path_ +
                               " line " + std::to_string(i + 1) + ": " + why);
    };
    if (!parse_line(lines[i], tag, json)) {
      if (reject("bad checksum or framing")) break;
    }
    try {
      const util::Json doc = util::Json::parse(json);
      if (i == 0) {
        if (tag != 'H') throw std::invalid_argument("missing header");
        if (field(doc, "kind").as_string() != "sweep-journal" ||
            util::json_as_uint(field(doc, "version"), "version") !=
                static_cast<std::uint64_t>(kJournalVersion)) {
          throw std::invalid_argument(
              "not a version-" + std::to_string(kJournalVersion) +
              " sweep journal");
        }
        if (field(doc, "fingerprint").as_string() != spec_fingerprint(spec)) {
          throw std::runtime_error(
              "checkpoint: journal " + cp->path_ +
              " was written by a different sweep spec — refusing to mix "
              "outcomes (use a fresh --out directory or rerun the original "
              "spec)");
        }
        if (util::json_as_uint(field(doc, "tasks"), "tasks") != task_count) {
          throw std::runtime_error(
              "checkpoint: journal task count does not match this grid");
        }
        saw_header = true;
      } else {
        if (tag != 'R') throw std::invalid_argument("unexpected tag");
        std::size_t task = 0;
        TaskOutcome out = outcome_from_json(doc, task);
        if (task >= task_count) {
          throw std::invalid_argument("task index out of range");
        }
        cp->replayed_[task] = std::move(out);
      }
    } catch (const std::runtime_error&) {
      throw;  // spec/task-count mismatches are always fatal
    } catch (const std::exception& e) {
      if (reject(e.what())) break;
    }
  }
  if (!saw_header) {
    throw std::runtime_error("checkpoint: journal " + cp->path_ +
                             " has no valid header");
  }

  std::string error;
  if (!cp->file_.open(cp->path_, /*truncate=*/false, error)) {
    throw std::runtime_error("checkpoint: cannot reopen journal " +
                             cp->path_ + ": " + error);
  }
  return cp;
}

void Checkpoint::record(std::size_t task, const TaskOutcome& outcome) {
  const std::string line =
      journal_line('R', outcome_to_json(task, outcome).dump(-1));
  std::lock_guard<std::mutex> lock(mu_);
  FaultInjector& faults = FaultInjector::global();
  if (faults.abort_on_append()) {
    // Simulated crash mid-append: half the record, no fsync, die the way
    // SIGABRT would be reported.
    file_.append_torn(line, line.size() / 2);
    std::_Exit(kFaultAbortExit);
  }
  std::string error;
  {
    const obs::TraceSpan span("journal.fsync", "task", task, "bytes",
                              line.size());
    if (!file_.append_fsync(line, error)) {
      throw std::runtime_error("checkpoint: journal append failed: " + error);
    }
  }
  if (task < replayed_.size()) replayed_[task] = outcome;
  if (faults.kill_after_task(task)) {
    // Record is durable; die before anything else happens — the
    // SIGKILL-at-a-task-boundary the resume tests replay everywhere.
    std::_Exit(kFaultKillExit);
  }
}

bool Checkpoint::completed(std::size_t task) const {
  std::lock_guard<std::mutex> lock(mu_);
  return task < replayed_.size() && replayed_[task].has_value();
}

std::size_t Checkpoint::completed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& r : replayed_) count += r.has_value() ? 1 : 0;
  return count;
}

const TaskOutcome* Checkpoint::outcome(std::size_t task) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (task >= replayed_.size() || !replayed_[task].has_value()) return nullptr;
  return &*replayed_[task];
}

void Checkpoint::remove_journal() {
  std::lock_guard<std::mutex> lock(mu_);
  file_.close();
  (void)std::remove(path_.c_str());
}

}  // namespace radiocast::exp
