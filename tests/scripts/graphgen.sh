#!/usr/bin/env bash
# Graph generation smoke: the graph-gen report's shape, byte-identical
# sweep reports for any generation thread count (--gen-threads), and loud
# failures for invalid thread-count values.
#
#   tests/scripts/graphgen.sh path/to/radiocast_bench
set -euo pipefail

bench=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Throughput report: schema v4, kind graph-gen, at least one point.
"$bench" graph-gen --quick --out="$work/gen" > /dev/null
jq -e '.version == 4 and .kind == "graph-gen" and (.points | length) > 0' \
  "$work/gen/graph-gen.json" > /dev/null

# Generation output is byte-identical for any --gen-threads (the chunk
# count depends on the instance size only, never on the thread count).
flags=(--quick --family=gnp,rgg,ba,powerlaw --n=512,1024 --protocol=decay
       --medium=bitslice --reps=16 --timing=off)
for threads in 1 4; do
  "$bench" sweep "${flags[@]}" --gen-threads=$threads \
    --out="$work/gen_t$threads" > /dev/null
done
diff "$work/gen_t1/sweep.csv" "$work/gen_t4/sweep.csv"
diff "$work/gen_t1/sweep.json" "$work/gen_t4/sweep.json"

# n = 1e5 chunked generation for the four parallel families at 4 threads:
# the atomic-cursor scatter and duplicate compaction at a size where every
# family splits into many chunks.
"$bench" graph-gen --n=100000 --family=gnp,rgg,ba,powerlaw --gen-threads=4 \
  --out= > /dev/null

# Invalid thread counts fail loudly instead of degrading: the flag's zero
# and non-numeric values, and a set-but-invalid environment variable.
expect_failure() {
  local what=$1
  shift
  if "$@" > /dev/null 2>&1; then
    echo "expected $what to fail" >&2
    exit 1
  fi
}
expect_failure "--gen-threads=0" \
  "$bench" sweep --quick --gen-threads=0 --out=
expect_failure "--gen-threads=junk" \
  "$bench" sweep --quick --gen-threads=junk --out=
expect_failure "junk RADIOCAST_GEN_THREADS" \
  env RADIOCAST_GEN_THREADS=junk "$bench" graph-gen --quick --out=
echo "graphgen: report shape, --gen-threads identity and failures ok"
