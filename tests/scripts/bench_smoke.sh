#!/usr/bin/env bash
# Bench smoke: one medium-backends run per medium backend, the
# lane-parallel protocol cores under both sender-recovery strategies, the
# per-phase timing metadata on their records, the report schema version,
# and loud failures for an unknown medium or recovery strategy.
#
#   tests/scripts/bench_smoke.sh path/to/radiocast_bench
set -euo pipefail

bench=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# One scenario per medium backend. RADIOCAST_SHARD_THREADS gives
# bitslice's dense-round slice pool 4 workers (only bitslice consumes it).
for medium in scalar bitslice; do
  RADIOCAST_SHARD_THREADS=4 "$bench" medium-backends --quick \
    --medium="$medium" --out=bench_out > /dev/null
done
test -f bench_out/medium-backends.json
# The bitslice run (last in the loop) records its O(active) cost evidence
# on every replication row.
jq -e '[.replications[] | select(.medium == "bitslice")]
       | length > 0 and all(has("active_listeners"))' \
  bench_out/medium-backends.json > /dev/null

# Lane-parallel protocol cores.
"$bench" protocol-lanes --quick --out=bench_out > /dev/null
test -f bench_out/protocol-lanes.json
# Unknown --medium values fail loudly.
if "$bench" protocol-lanes --quick --medium=quantum --out= \
    > /dev/null 2>&1; then
  echo "expected unknown --medium to fail" >&2
  exit 1
fi

# Sender-recovery strategies and per-phase metadata.
for recovery in auto rowscan; do
  "$bench" protocol-lanes --quick --recovery="$recovery" --out=bench_out \
    > /dev/null
  # Every record carries the recovery strategy and per-phase timings.
  jq -e '.replications[0]
         | has("recovery") and has("phase_traverse_ns")
           and has("phase_output_ns") and has("phase_recover_ns")' \
    bench_out/protocol-lanes.json > /dev/null
  # Lane-batched rows record the pinned strategy.
  jq -e --arg r "$recovery" \
    '[.replications[] | select(.label == "decay-lanes")]
     | length > 0 and all(.recovery == $r)' \
    bench_out/protocol-lanes.json > /dev/null
done
"$bench" medium-backends --quick --medium=bitslice --out=bench_out \
  > /dev/null
jq -e '.replications[0] | has("phase_traverse_ns")' \
  bench_out/medium-backends.json > /dev/null
# Unknown --recovery values fail loudly.
if "$bench" protocol-lanes --quick --recovery=psychic --out= \
    > /dev/null 2>&1; then
  echo "expected unknown --recovery to fail" >&2
  exit 1
fi
# Every emitted JSON carries the report schema version.
jq -e '.version == 4' bench_out/protocol-lanes.json > /dev/null

echo "bench smoke: ok"
