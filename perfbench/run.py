#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cd-gnp --seed 1 --seconds 40 --trace 0

Workloads: cd-gnp, le-cliquepath, decay-lanes-gnp (see perfbench/README.md).
--trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
and prints the per-layer metrics, writes a Perfetto-loadable trace and a
per-layer table (bench_out/perfbench/<workload>.{trace,layers}.json).

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The lines before it are a human-readable summary and the outcome digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "bench_out" / "perfbench"

WORKLOADS = ("cd-gnp", "le-cliquepath", "decay-lanes-gnp")
# Seed 7919 is held out for confirming later claims (see README.md).
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "reps_per_s": "1/s",
    "task_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_mean": "rounds",
}

PER_LAYER_UNITS = {
    "graph.gen_ms": "ms",
    "graph.diameter_ms": "ms",
    "graph.edges": "count",
    "cluster.partition_ms": "ms",
    "cluster.partitions": "count",
    "cluster.share_pct": "%",
    "schedule.tree_ms": "ms",
    "schedule.share_pct": "%",
    "core.propagate_ms": "ms",
    "core.self_ms": "ms",
    "core.share_pct": "%",
    "core.ns_per_round": "ns",
    "core.wave_deliveries": "count",
    "core.wave_blocked": "count",
    "core.wave_useful_ratio": "ratio",
    "core.decay_deliveries": "count",
    "core.windows": "count",
    "core.le_candidates": "count",
    "core.decay_ms": "ms",
    "radio.round_ms": "ms",
    "radio.share_pct": "%",
    "radio.traverse_ms": "ms",
    "radio.output_ms": "ms",
    "radio.recover_ms": "ms",
    "radio.resolve_calls": "count",
    "radio.ns_per_resolve": "ns",
    "radio.active_listeners_per_resolve": "count",
    "radio.idplane_rounds": "count",
    "radio.rowscan_rounds": "count",
    "radio.constfold_rounds": "count",
    "radio.delivery_ratio": "ratio",
    "exp.journal_us": "us",
    "unattributed_ms": "ms",
    "unattributed.share_pct": "%",
    "task_wall_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "obs.mirror_mismatches": "count",
    "obs.dropped_events": "count",
}

# Layers a task's wall time is split into (graph and exp run outside tasks).
TASK_LAYERS = ("cluster", "schedule", "core", "radio", "unattributed")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        log(proc.stdout + proc.stderr)
        raise BenchError(f"{cmd[0]} exited with {proc.returncode}")


def build():
    """Configures (once) and builds the Release perfbench binary."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources at {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], timeout=840)
    return out / "perfbench"


def measure(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--tamper", "1" if args.tamper else "0",
           "--out", str(OUT_DIR)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr)
        raise BenchError(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw):
    """Task and setup times are each task's and each instance build's
    fastest CPU time over the run's rounds (see perfbench.cpp)."""
    tasks = raw["task_ms"]
    return {
        "reps_per_s": raw["reps_per_task"] * len(tasks) / (sum(tasks) / 1000.0),
        "task_ms_p50": statistics.median(tasks),
        "setup_s": statistics.median(raw["setup_ms"]) / 1000.0,
        "peak_rss_mb": raw["peak_rss_mb"],
        "rounds_mean": raw["rounds_mean"],
    }


def layer_of(name):
    if name == "task":
        return "unattributed"  # the task span's self time: glue between calls
    prefix = name.split(".")[0]
    if prefix in ("scalar", "bitslice", "frontier", "sharded"):
        return "radio"  # the library's own medium round spans
    if prefix == "pargen":
        return "graph"
    return prefix


def reduce_trace(path):
    """Per-span-name self time (ns), total time (ns) and count.

    A span's self time is its duration minus the time its direct children
    cover; children nest inside parents on the same thread.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    # Timestamps are microseconds with nanosecond decimals; integer ns keep
    # the nesting test exact. Parents sort before children that share their
    # start.
    spans = sorted(
        ((e["tid"], round(e["ts"] * 1000), round(e["dur"] * 1000), e["name"])
         for e in events if e.get("ph") == "X"),
        key=lambda s: (s[0], s[1], -s[2]))
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    count = defaultdict(int)
    stack = []  # open spans: [end_ns, name, dur_ns, children_ns]

    def close():
        _, name, dur, children = stack.pop()
        self_ns[name] += dur - children
        if stack:
            stack[-1][3] += dur

    tid = None
    for span_tid, start, dur, name in spans:
        if span_tid != tid:
            while stack:
                close()
            tid = span_tid
        while stack and stack[-1][0] <= start:
            close()
        total_ns[name] += dur
        count[name] += 1
        stack.append([start + dur, name, dur, 0])
    while stack:
        close()
    return self_ns, total_ns, count


def trace_overhead_pct(raw):
    """Median slowdown of a traced task against the same task untraced.
    Pairing by task cancels the several-fold work differences between
    seeds."""
    ratios = [traced / plain
              for plain, traced in zip(raw["task_ms"], raw["traced_task_ms"])]
    return 100.0 * (statistics.median(ratios) - 1.0)


def per_layer(raw):
    """Per-layer metrics of a traced run, and the per-layer table."""
    self_ns, total_ns, count = reduce_trace(raw["trace_file"])
    layer_ns = defaultdict(int)
    for name, ns in self_ns.items():
        layer_ns[layer_of(name)] += ns
    tasks = count["task"]
    if tasks == 0:
        raise BenchError("the trace holds no task spans")
    wall_ns = total_ns["task"]
    c = raw["counters"]
    batched = raw["lanes"] > 1
    # Per replication on cd/le (a task is a block of them), per 64-lane
    # batch on decay-lanes-gnp.
    units = tasks if batched else tasks * raw["reps_per_task"]

    def per_unit(value):
        return value / units

    def ratio(num, den):
        return num / den if den else 0.0

    resolve_names = [n for n in count if layer_of(n) == "radio" and n.endswith(".round")]
    resolves = sum(count[n] for n in resolve_names)
    resolve_ns = sum(self_ns[n] for n in resolve_names)
    # Simulated rounds the core layer drove: compete's rounds on cd/le, the
    # batch's physical rounds on decay-lanes-gnp.
    rounds = c["rounds"] or c["medium_rounds"]
    wave = c["wave_deliveries"]
    metrics = {
        "graph.gen_ms": raw["graph_gen_ms"],
        "graph.diameter_ms": raw["graph_diameter_ms"],
        "graph.edges": raw["edges"],
        "cluster.partition_ms": per_unit(layer_ns["cluster"]) / 1e6,
        "cluster.partitions": per_unit(c["partitions"]),
        "schedule.tree_ms": per_unit(layer_ns["schedule"]) / 1e6,
        "core.propagate_ms": per_unit(wall_ns - layer_ns["cluster"] - layer_ns["schedule"]) / 1e6,
        "core.self_ms": per_unit(layer_ns["core"]) / 1e6,
        "core.ns_per_round": ratio(layer_ns["core"], rounds),
        "core.wave_deliveries": per_unit(wave),
        "core.wave_blocked": per_unit(c["wave_blocked"]),
        "core.wave_useful_ratio": ratio(wave, wave + c["wave_blocked"]),
        "core.decay_deliveries": per_unit(c["decay_deliveries"]),
        "core.windows": per_unit(c["windows"]),
        "core.le_candidates": per_unit(c["candidates"]),
        "core.decay_ms": per_unit(wall_ns - c["medium_ns"]) / 1e6 if batched else 0.0,
        "radio.round_ms": per_unit(resolve_ns) / 1e6,
        "radio.traverse_ms": per_unit(c["traverse_ns"]) / 1e6,
        "radio.output_ms": per_unit(c["output_ns"]) / 1e6,
        "radio.recover_ms": per_unit(c["recover_ns"]) / 1e6,
        "radio.resolve_calls": per_unit(resolves),
        "radio.ns_per_resolve": ratio(resolve_ns, resolves),
        "radio.active_listeners_per_resolve": ratio(c["active_listeners"], c["medium_rounds"]),
        "radio.idplane_rounds": per_unit(c["idplane_rounds"]),
        "radio.rowscan_rounds": per_unit(c["rowscan_rounds"]),
        "radio.constfold_rounds": per_unit(c["constfold_rounds"]),
        "radio.delivery_ratio": ratio(c["deliveries"], c["deliveries"] + c["collisions"]),
        "exp.journal_us": statistics.median(raw["journal_us"]),
        "unattributed_ms": per_unit(layer_ns["unattributed"]) / 1e6,
        "task_wall_ms": per_unit(wall_ns) / 1e6,
        "obs.trace_overhead_pct": trace_overhead_pct(raw),
        "obs.mirror_mismatches": raw["mirror_mismatches"],
        "obs.dropped_events": raw["dropped_events"],
    }
    layers = {}
    for layer in TASK_LAYERS:
        share = 100.0 * ratio(layer_ns[layer], wall_ns)
        metrics[f"{layer}.share_pct"] = share
        layers[layer] = {"self_ms": per_unit(layer_ns[layer]) / 1e6, "share_pct": share}
    table = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "tasks": tasks,
        "unit": "batch" if batched else "replication",
        "task_wall_ms": metrics["task_wall_ms"],
        "layers": layers,
        "unattributed_ms": metrics["unattributed_ms"],
        "trace_overhead_pct": metrics["obs.trace_overhead_pct"],
        "outside_tasks_ms": {"graph": layer_ns["graph"] / 1e6,
                             "exp.journal_us_median": metrics["exp.journal_us"]},
        "spans": {name: {"count": count[name], "self_ms": self_ns[name] / 1e6,
                         "total_ms": total_ns[name] / 1e6}
                  for name in sorted(count)},
    }
    return metrics, table


def print_layer_table(table):
    unit = table["unit"]
    print(f"per-layer self time, {table['tasks']} traced tasks, "
          f"task wall {table['task_wall_ms']:.3f} ms/{unit}")
    print(f"  {'layer':<14}{'ms/' + unit:>16}{'share %':>10}")
    for layer, row in table["layers"].items():
        print(f"  {layer:<14}{row['self_ms']:>16.3f}{row['share_pct']:>10.2f}")
    print(f"  tracing overhead {table['trace_overhead_pct']:.2f} % of task wall")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Tests only: smaller instances, and a corrupted outcome that the
    # outcome check must catch.
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)

    try:
        exe = build()
        raw = measure(exe, args)
        if args.trace:
            metrics, table = per_layer(raw)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(raw)
            units = END_TO_END_UNITS
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError,
            KeyError) as err:
        log(f"benchmark failed: {err}")
        return 1

    failed = raw["failed"]
    attempted = raw["attempted"]
    diameters = sorted({int(d) for d in raw["diameters"]})
    print(f"{raw['workload']} seed={raw['seed']} n={raw['n']} "
          f"edges={raw['edges']} D={diameters} lanes={raw['lanes']} "
          f"instances={len(raw['diameters'])} tasks={raw['tasks']} "
          f"(the task_ms_p50 samples) rounds={raw['rounds']}"
          + ("" if args.trace else
             f" wall/cpu={raw['wall_total_ms'] / raw['cpu_total_ms']:.3f}"))
    print(f"outcomes: attempted={attempted} failed={failed}")
    print(f"digest: {raw['digest']} success={raw['successes']:.0f}/"
          f"{raw['tasks'] * raw['reps_per_task']:.0f} rounds_mean={raw['rounds_mean']} "
          f"(identical in every run of this seed)")
    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        layers_path = OUT_DIR / f"{args.workload}.layers.json"
        layers_path.write_text(json.dumps(table, indent=2) + "\n")
        print_layer_table(table)
        print(f"trace: {raw['trace_file']}  layers: {layers_path.relative_to(ROOT)}")
        if raw["mirror_mismatches"]:
            log("warning: the layer-by-layer replay disagreed with the library "
                f"on {raw['mirror_mismatches']} tasks; per-layer numbers are suspect")
    for name, value in metrics.items():
        print(f"  {name:<36}{value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
