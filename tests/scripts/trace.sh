#!/usr/bin/env bash
# Trace smoke: a traced sweep writes valid Chrome trace-event JSON, tracing
# leaves reports byte-identical at --timing=off, the RADIOCAST_TRACE
# environment variable is the same knob as --trace, and a kill -> resume
# under tracing still reproduces an uninterrupted run.
#
#   tests/scripts/trace.sh path/to/radiocast_bench
set -euo pipefail

bench=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# A traced sweep leaves the reports byte-identical to an untraced one.
flags=(--quick --timing=off --progress=off)
RADIOCAST_SHARD_THREADS=4 "$bench" sweep "${flags[@]}" \
  --medium=scalar,bitslice --threads=2 --out=tr_plain > /dev/null
RADIOCAST_SHARD_THREADS=4 "$bench" sweep "${flags[@]}" \
  --medium=scalar,bitslice --threads=2 --out=tr_traced \
  --trace=sweep_trace.json > /dev/null
diff tr_plain/sweep.csv tr_traced/sweep.csv
diff tr_plain/sweep.json tr_traced/sweep.json

# Trace shape: events present, the Perfetto-required fields on every
# event, and complete ("X") spans carry a non-negative duration.
jq -e '.traceEvents | length > 0' sweep_trace.json > /dev/null
jq -e '[.traceEvents[]
        | select((has("name") and has("ph") and has("pid")
                  and has("tid")) | not)]
       | length == 0' sweep_trace.json > /dev/null
jq -e '[.traceEvents[] | select(.ph == "X")
        | select((has("dur") | not) or .dur < 0)]
       | length == 0' sweep_trace.json > /dev/null

# The layers that matter are on the timeline: planner task spans, journal
# fsyncs, and bitslice's slice-pool rounds with their per-worker lanes
# (thread_name metadata).
jq -e '[.traceEvents[].name] | unique
       | contains(["sweep.task", "journal.fsync",
                   "sharded.round", "runner.task"])' \
  sweep_trace.json > /dev/null
jq -e '[.traceEvents[]
        | select(.ph == "M" and .name == "thread_name")
        | .args.name]
       | map(select(startswith("sharded-worker-")))
       | length >= 4' sweep_trace.json > /dev/null

# RADIOCAST_TRACE is the same knob as --trace.
RADIOCAST_TRACE=env_trace.json "$bench" decay --quick --out= > /dev/null
jq -e '.traceEvents | length > 0' env_trace.json > /dev/null

# Crash and resume with tracing on: the resumed run's reports match an
# uninterrupted untraced run byte for byte.
status=0
RADIOCAST_FAULT="kill@1" "$bench" sweep "${flags[@]}" --out=tr_kill \
  --trace=kill_trace.json > /dev/null || status=$?
test "$status" -eq 137
"$bench" sweep "${flags[@]}" --resume=tr_kill \
  --trace=resume_trace.json > /dev/null
"$bench" sweep "${flags[@]}" --out=tr_clean > /dev/null
diff tr_clean/sweep.csv tr_kill/sweep.csv
diff tr_clean/sweep.json tr_kill/sweep.json
jq -e '.traceEvents | length > 0' resume_trace.json > /dev/null
echo "trace: report identity, trace shape, env knob and traced resume ok"
