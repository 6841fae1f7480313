#!/usr/bin/env bash
# Sweep smoke: grid expansion (dry run), the report schema, outcome
# equality across mediums and recovery strategies, the manifest round trip,
# loud failures for bad grids, and the scale-free families with their
# per-point timing and instance-cache counters.
#
#   tests/scripts/sweep.sh path/to/radiocast_bench
set -euo pipefail

bench=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# A dry run lists the expanded grid without executing it.
"$bench" sweep --quick --dry-run --out= > dry_run.txt
test -s dry_run.txt

# Tiny grid: 2 families x 3 n x 2 protocols x both mediums x both batch
# recovery strategies = 48 points (its --threads and
# RADIOCAST_SHARD_THREADS determinism runs in determinism.sh).
flags=(--quick --family=gnp,cliquepath --protocol=decay,compete
       --medium=scalar,bitslice --recovery=auto,rowscan --timing=off)
RADIOCAST_SHARD_THREADS=1 "$bench" sweep "${flags[@]}" --threads=1 \
  --out=sweep_t1 > /dev/null
report=sweep_t1/sweep.json

# Schema: version, kind, >= 32 grid points, every medium present.
jq -e '.version == 4 and .kind == "sweep"' "$report" > /dev/null
jq -e '.points | length >= 32' "$report" > /dev/null
jq -e '[.points[].medium] | unique | sort == ["bitslice", "scalar"]' \
  "$report" > /dev/null
# Outcome equality: point seeds derive from (family, param, n) only, so on
# the shared grid both mediums under both recovery strategies must report
# identical success/round statistics and delivery means.
jq -e '[.points[]
        | {key: [.family, .param, .n, .protocol, .lanes],
           out: [.successes, .rounds, .deliveries_mean]}]
       | group_by(.key)
       | all(length == 4 and (map(.out) | unique | length) == 1)' \
  "$report" > /dev/null
# Wilson intervals bracket the rate, and the theory overlay is evaluated.
jq -e 'all(.points[];
           .wilson_lo <= .success_rate and .success_rate <= .wilson_hi)' \
  "$report" > /dev/null
jq -e 'all(.points[]; .theory.bound > 0)' "$report" > /dev/null
jq -e '.spec.reps >= 1 and (.spec.family | length) == 2' "$report" \
  > /dev/null

# Manifest round trip: the report's own spec echo, fed back in, expands.
jq '.spec' "$report" > manifest.json
"$bench" sweep --manifest=manifest.json --dry-run --out= > manifest_dry.txt
test -s manifest_dry.txt

# Bad grids must fail loudly.
if "$bench" sweep --family=quantum --out= > /dev/null 2>&1; then
  echo "expected unknown family to fail" >&2
  exit 1
fi
if "$bench" sweep --p=geom:0..1:3 --out= > /dev/null 2>&1; then
  echo "expected bad geometric range to fail" >&2
  exit 1
fi

# Scale-free families (ba, powerlaw) with timing on, so the per-point
# gen_ns and cache counters are emitted.
"$bench" sweep --quick --family=ba,powerlaw --m=2 --exp=2.5 --pl-deg=8 \
  --n=512,1024 --protocol=decay --medium=bitslice --reps=32 --lanes=16 \
  --out=sweep_sf > /dev/null
report=sweep_sf/sweep.json
jq -e '.version == 4 and (.points | length) == 4' "$report" > /dev/null
# Every point records its generation cost and cache attribution, plus the
# sparse-list counters.
jq -e 'all(.points[];
           .timing | has("gen_ns") and has("cache_hits")
             and has("cache_misses") and has("enqueue_ns")
             and has("drain_ns") and has("active_listeners"))' \
  "$report" > /dev/null
# Timing-on sweeps carry the metrics registry snapshot.
jq -e '.metrics | has("counters") and has("histograms")' "$report" \
  > /dev/null
jq -e '.metrics.histograms | has("sweep.task_wall_ms")' "$report" \
  > /dev/null
# One build per grid point: 32 reps in 16-wide lanes = 2 batches per
# point, so the second batch of every point must hit the cache.
jq -e '.cache.misses == 4 and .cache.hits >= 4' "$report" > /dev/null

echo "sweep smoke: ok"
