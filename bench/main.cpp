// radiocast_bench — the single experiment driver.
//
//   radiocast_bench --list
//   radiocast_bench <scenario> [--quick] [--seed=S] [--reps=R]
//                   [--threads=N] [--out=DIR]
//
// Scenarios self-register into sim::ScenarioRegistry (see the
// RADIOCAST_SCENARIO registrations in bench/bench_*.cpp); the driver just
// dispatches the subcommand and owns the shared replication runner.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <span>
#include <string>
#include <string_view>

#include "exp/checkpoint.hpp"
#include "exp/fault.hpp"
#include "obs/trace.hpp"
#include "radio/medium.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/fsio.hpp"
#include "util/parse.hpp"

namespace {

void print_list(const radiocast::sim::ScenarioRegistry& registry) {
  std::size_t width = 0;
  for (const auto* s : registry.list()) {
    width = std::max(width, s->name.size());
  }
  std::cout << "scenarios (" << registry.size() << "):\n";
  for (const auto* s : registry.list()) {
    std::cout << "  " << s->name
              << std::string(width - s->name.size() + 2, ' ')
              << s->description << "\n";
  }
}

/// --help shows exactly what the get_choice validation will accept, via
/// the shared util::Cli::render_choices formatting.
template <std::size_t N>
std::string choice_values(const std::array<std::string_view, N>& names) {
  return radiocast::util::Cli::render_choices(
      std::span<const std::string_view>(names));
}

void print_usage(const char* program) {
  std::cout
      << "usage: " << program << " <scenario> [flags]\n"
      << "       " << program << " --list\n\n"
      << "flags:\n"
      << "  --quick        smaller sweeps (smoke-test sized)\n"
      << "  --seed=S       base RNG seed (per-scenario default otherwise)\n"
      << "  --reps=R       replications per sweep point\n"
      << "  --threads=N    worker threads for replications (default 1);\n"
      << "                 results are identical for any N\n"
      << "  --medium=" << choice_values(radiocast::radio::kMediumNames)
      << "\n"
      << "                 radio backend for medium-aware scenarios\n"
      << "                 (default scalar)\n"
      << "  --recovery=" << choice_values(radiocast::radio::kRecoveryNames)
      << "\n"
      << "                 sender-recovery strategy for batch media\n"
      << "                 (default auto = row scan fused into dense\n"
      << "                 rounds; rowscan pins the deferred scan)\n"
      << "  --gen-threads=N\n"
      << "                 graph-generation worker count (absent = the\n"
      << "                 RADIOCAST_GEN_THREADS env var, else hardware;\n"
      << "                 must be a positive integer when given; never\n"
      << "                 changes generated graphs, only build speed)\n"
      << "  --out=DIR      CSV/JSON output directory (default bench_out;\n"
      << "                 empty string disables file output)\n"
      << "\n"
      << "observability (see README \"Observability\"):\n"
      << "  --trace=FILE   write a Chrome-trace JSON of the run to FILE\n"
      << "                 (open in ui.perfetto.dev or chrome://tracing;\n"
      << "                 the RADIOCAST_TRACE env var is the same knob).\n"
      << "                 Never changes CSV/JSON report bytes\n"
      << "  --progress=auto|on|off\n"
      << "                 live one-line sweep heartbeat on stderr\n"
      << "                 (default auto = only when stderr is a TTY)\n"
      << "\n"
      << "sweep subcommand (declarative experiment grids; axes accept\n"
      << "comma lists and lin:lo..hi:k / geom:lo..hi:k ranges):\n"
      << "  " << program << " sweep --family=gnp,cliquepath"
      << " --n=512,1024,2048 \\\n"
      << "      --p=deg:12 --protocol=decay"
      << " --medium=scalar,bitslice\n"
      << "  --manifest=F   read the grid from a JSON manifest file\n"
      << "  --dry-run      list the expanded jobs without running them\n"
      << "  --timing=off   omit wall/phase timing from sweep.csv/json\n"
      << "                 (output is then byte-identical across runs)\n"
      << "  --gen-cache=off\n"
      << "                 rebuild the graph per replication batch instead\n"
      << "                 of caching one instance per grid point\n"
      << "  (--medium/--recovery take comma lists here; family axes are\n"
      << "   --p/--radius/--m/--exp/--d with --pl-deg as the powerlaw\n"
      << "   degree knob; --lanes, --reps, --sources, --max-rounds,\n"
      << "   --seed scale the grid)\n"
      << "\n"
      << "crash safety (sweep; see README \"Crash safety\"):\n"
      << "  --resume=DIR   finish an interrupted sweep from DIR's journal\n"
      << "                 (same spec flags; output is byte-identical at\n"
      << "                 --timing=off to an uninterrupted run)\n"
      << "  --checkpoint=off\n"
      << "                 do not write the <out>/sweep.journal task log\n"
      << "  --task-timeout=MS\n"
      << "                 per-task watchdog: attempts over budget are\n"
      << "                 abandoned, retried, then quarantined\n"
      << "  --retries=K    transient-failure retries per task before the\n"
      << "                 task is quarantined (default 0)\n"
      << "  SIGINT/SIGTERM drain gracefully: in-flight tasks finish and\n"
      << "  journal, then the driver exits 75 (resumable)\n"
      << "  RADIOCAST_FAULT=kill@<task>|abort@<n>|io-fail@<n>|\n"
      << "      task-throw@<task>[x<k>]|task-hang@<task>|sigint@<task>\n"
      << "                 deterministic fault injection for crash tests\n";
}

}  // namespace

int main(int argc, char** argv) {
  using radiocast::sim::Runner;
  using radiocast::sim::ScenarioContext;
  using radiocast::sim::ScenarioRegistry;

  try {
    const radiocast::util::Cli cli(argc, argv);
    const auto& registry = ScenarioRegistry::global();

    // SIGINT/SIGTERM request a graceful drain (sweep journals in-flight
    // tasks and exits 75 = resumable); a second signal kills outright.
    radiocast::exp::install_signal_handlers();

    // RADIOCAST_FAULT arms the deterministic crash/fault harness (see
    // exp/fault.hpp for the grammar). An invalid value is a hard error —
    // a typo'd fault test that silently runs clean proves nothing.
    if (const char* fault = std::getenv("RADIOCAST_FAULT");
        fault != nullptr && *fault != '\0') {
      radiocast::exp::FaultInjector::global().configure(
          radiocast::exp::FaultSpec::parse(fault));
      radiocast::util::set_io_fault_hook([] {
        return radiocast::exp::FaultInjector::global().take_io_fault();
      });
    }

    // Cli's `--flag value` syntax eats a scenario name that follows a bare
    // boolean flag (`--quick decay`); catch the misparse before the
    // get_bool calls below choke on it, and point at the fix.
    for (const auto* s : registry.list()) {
      for (const char* flag : {"quick", "list", "help"}) {
        if (cli.get_string(flag, "") == s->name) {
          std::cerr << "error: '" << s->name << "' was parsed as the value"
                    << " of --" << flag << "; put the scenario first:\n  "
                    << cli.program() << " " << s->name << " --" << flag
                    << "\n";
          return 2;
        }
      }
    }

    if (cli.get_bool("list", false) || cli.subcommand() == "list") {
      print_list(registry);
      return 0;
    }
    if (cli.subcommand().empty() || cli.get_bool("help", false)) {
      print_usage(cli.program().c_str());
      print_list(registry);
      return cli.subcommand().empty() && !cli.get_bool("help", false) ? 2 : 0;
    }

    Runner runner(static_cast<int>(cli.get_int("threads", 1)));
    ScenarioContext ctx(cli, runner);
    // Validate the enum-valued flags for every scenario up front:
    // scenarios that ignore them would otherwise silently run their
    // defaults on a typo'd value. The sweep subcommand is exempt — its
    // --medium/--recovery are grid AXES (comma lists), validated
    // per-element by exp::SweepSpec.
    const bool is_sweep = cli.subcommand() == "sweep";
    if (cli.has("medium") && !is_sweep) (void)ctx.medium_kind();
    if (cli.has("recovery") && !is_sweep) (void)ctx.recovery_strategy();
    if (cli.has("gen-threads")) (void)ctx.gen_threads();
    if (cli.has("task-timeout")) {
      (void)radiocast::util::parse_positive_int(
          cli.get_string("task-timeout", ""), "--task-timeout");
    }
    if (cli.has("retries")) {
      (void)radiocast::util::parse_uint(cli.get_string("retries", ""),
                                        "--retries");
    }
    if (cli.has("resume") && cli.get_string("resume", "").empty()) {
      throw std::invalid_argument(
          "--resume requires the output directory of the interrupted sweep");
    }
    if (cli.has("out")) ctx.out_dir = cli.get_string("out", "bench_out");

    // --trace=FILE (or RADIOCAST_TRACE) records the whole run as a
    // Chrome-trace JSON. Purely observational: reports are byte-identical
    // with tracing on or off (pinned by test_obs and CI).
    std::string trace_path = cli.get_string("trace", "");
    if (trace_path.empty()) {
      if (const char* env = std::getenv("RADIOCAST_TRACE");
          env != nullptr && *env != '\0') {
        trace_path = env;
      }
    }
    if (!trace_path.empty()) {
      radiocast::obs::TraceSession::global().start(trace_path);
    }
    const auto flush_trace = [] {
      auto& session = radiocast::obs::TraceSession::global();
      if (!session.active()) return;
      const std::string written = session.stop_and_flush();
      if (!written.empty()) std::cerr << "[trace] " << written << "\n";
      if (session.dropped() > 0) {
        std::cerr << "[trace] " << session.dropped()
                  << " events dropped (ring buffers full)\n";
      }
    };

    try {
      const auto start = std::chrono::steady_clock::now();
      registry.run(cli.subcommand(), ctx);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      // The per-replication perf-trajectory JSON (scenarios that recorded
      // nothing skip it); the Report sink logs the "[json] path" line.
      (void)ctx.write_json(cli.subcommand(), wall_ms);
    } catch (...) {
      // An interrupted or failed run still flushes the partial trace —
      // that is exactly the run someone wants to look at.
      flush_trace();
      throw;
    }
    flush_trace();
    return 0;
  } catch (const radiocast::exp::ResumableInterrupt& e) {
    std::cerr << "interrupted: " << e.what() << "\n";
    return radiocast::exp::kResumableExit;  // 75: resumable, not failed
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
