#!/usr/bin/env bash
# Determinism smoke: radiocast_bench reports must be byte-identical for any
# task thread count (--threads) and any medium worker count
# (RADIOCAST_SHARD_THREADS).
#
#   tests/scripts/determinism.sh path/to/radiocast_bench
set -euo pipefail

bench=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The scenario registry lists itself.
"$bench" --list > "$work/list.txt"
test -s "$work/list.txt"

# Scenario reports (the Runner's contract).
"$bench" decay --quick --threads=1 --out= > "$work/t1.txt"
"$bench" decay --quick --threads=4 --out= > "$work/t4.txt"
diff "$work/t1.txt" "$work/t4.txt"
# ...and the scenario's replication JSON, whose wall clock is timing and
# so must vanish at --timing=off.
for threads in 1 4; do
  "$bench" decay --quick --timing=off --threads=$threads \
    --out="$work/decay_t$threads" > /dev/null
done
diff "$work/decay_t1/decay.json" "$work/decay_t4/decay.json"
# The lane-batched protocol cores (multi-lane Decay steps) record every
# replication; their rows' wall clocks and phase timers vanish at
# --timing=off too.
for threads in 1 4; do
  "$bench" protocol-lanes --quick --timing=off --threads=$threads \
    --out="$work/lanes_t$threads" > /dev/null
done
diff "$work/lanes_t1/protocol-lanes.json" "$work/lanes_t4/protocol-lanes.json"
# ...and so do the medium microbenchmark's timing-only rows.
for threads in 1 4; do
  "$bench" medium-backends --quick --timing=off --threads=$threads \
    --out="$work/media_t$threads" > /dev/null
done
diff "$work/media_t1/medium-backends.json" "$work/media_t4/medium-backends.json"

# Sweep reports: 2 families x 3 n x 2 protocols x both mediums x both batch
# recovery strategies; --timing=off makes the files byte-identical.
flags=(--quick --family=gnp,cliquepath --protocol=decay,compete
       --medium=scalar,bitslice --recovery=auto,rowscan --timing=off)
for threads in 1 4; do
  for shard in 1 4; do
    RADIOCAST_SHARD_THREADS=$shard "$bench" sweep "${flags[@]}" \
      --threads=$threads --out="$work/sweep_t${threads}_s${shard}" > /dev/null
  done
done
for run in t1_s4 t4_s1 t4_s4; do
  diff "$work/sweep_t1_s1/sweep.csv" "$work/sweep_$run/sweep.csv"
  diff "$work/sweep_t1_s1/sweep.json" "$work/sweep_$run/sweep.json"
done
# The default quick grid over both media with the task and slice pools on.
RADIOCAST_SHARD_THREADS=4 "$bench" sweep --quick --medium=bitslice,scalar \
  --threads=4 --out= > /dev/null
echo "determinism: all reports identical"
