#!/usr/bin/env bash
# trend.sh — headline performance trend for the medium backends.
#
# Runs the medium-backends scenario, extracts the three headline speedups
# from its CSV output, writes them as bench_out/trend.json, and checks
# them against the committed BENCH_baseline.json acceptance bars:
#
#   batch_reps_speedup    bitslice 64-seed replication vs scalar  (>= 8x)
#   sparse_tail_speedup   bitslice active-only vs n-entry list
#                         on tail rounds                          (>= 5x)
#   sharded_scaling_w4    bitslice 4-worker vs 1-worker dense     (>= 2x,
#                         batch (key name kept for history)       enforced
#                         only on hosts with >= 4 cores)
#
# Usage:
#   bench/trend.sh [--quick] [--strict] [--append] [--bench BIN] [--out DIR]
#
# --quick   smoke-sized sweeps (bars are calibrated for full mode; quick
#           results are reported but never enforced)
# --strict  exit 1 when an enforced bar is missed (default: warn only)
# --append  also append one compact JSON line to <repo>/BENCH_history.jsonl
#           (date, git revision, mode, cores, the three metrics) — the
#           cross-PR perf trajectory; summarize it with bench/history.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench_bin="${repo_root}/build/radiocast_bench"
out_dir="${repo_root}/bench_out"
history_file="${repo_root}/BENCH_history.jsonl"
quick=0
strict=0
append=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --strict) strict=1 ;;
    --append) append=1 ;;
    --bench) bench_bin="$2"; shift ;;
    --out) out_dir="$2"; shift ;;
    *) echo "trend.sh: unknown flag $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -x "${bench_bin}" ]]; then
  echo "trend.sh: bench binary not found at ${bench_bin}" >&2
  echo "          build it first: cmake -B build -S . && cmake --build build -j" >&2
  exit 2
fi

mode_flag=()
mode="full"
if [[ ${quick} -eq 1 ]]; then
  mode_flag=(--quick)
  mode="quick"
fi

"${bench_bin}" medium-backends "${mode_flag[@]}" --out="${out_dir}"

# last_speedup CSV COL — final field named COL from the last data row that
# awk's filter matches; CSVs are flat key,value tables emitted by the bench.
col() {
  local file="$1" filter="$2" field="$3"
  awk -F, -v f="${filter}" -v c="${field}" '
    NR == 1 { for (i = 1; i <= NF; ++i) if ($i == c) col = i; next }
    $0 ~ f { v = $col }
    END { if (v != "") print v; else print "nan" }
  ' "${file}"
}

batch=$(col "${out_dir}/medium_backends_batch.csv" '^bitslice,' 'speedup')
tail_sp=$(col "${out_dir}/medium_backends_sparse_tail.csv" '^active-only,' 'tail speedup')
scale=$(col "${out_dir}/medium_backends_two_level.csv" '^bitslice,4,' 'scaling')

cores=$(nproc 2>/dev/null || echo 1)

cat > "${out_dir}/trend.json" <<EOF
{
  "date": "$(date -u +%Y-%m-%d)",
  "mode": "${mode}",
  "hardware_concurrency": ${cores},
  "metrics": {
    "batch_reps_speedup": ${batch},
    "sparse_tail_speedup": ${tail_sp},
    "sharded_scaling_w4": ${scale}
  }
}
EOF
echo
echo "[trend] ${out_dir}/trend.json"

if [[ ${append} -eq 1 ]]; then
  rev=$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)
  # A metric the CSVs did not produce is "nan" — valid JSON needs null.
  jnum() { if [[ "$1" == "nan" ]]; then echo null; else echo "$1"; fi; }
  printf '{"date":"%s","rev":"%s","mode":"%s","cores":%s,"batch_reps_speedup":%s,"sparse_tail_speedup":%s,"sharded_scaling_w4":%s}\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "${rev}" "${mode}" "${cores}" \
    "$(jnum "${batch}")" "$(jnum "${tail_sp}")" "$(jnum "${scale}")" \
    >> "${history_file}"
  echo "[trend] appended to ${history_file}"
fi

fail=0
check() {
  local name="$1" value="$2" bar="$3" enforced="$4"
  local status="PASS"
  if awk -v v="${value}" -v b="${bar}" 'BEGIN { exit !(v >= b) }'; then
    :
  elif [[ "${enforced}" == "1" ]]; then
    status="FAIL"
    fail=1
  else
    status="skip"
  fi
  printf '[trend] %-22s %8s  (bar >= %s)  %s\n' "${name}" "${value}" "${bar}" "${status}"
}

# Bars are calibrated for full mode on the committed baseline host; quick
# runs report but never enforce. The pool scaling bar additionally
# needs >= 4 cores to be meaningful.
enforce=$(( quick == 0 ? 1 : 0 ))
scale_enforce=${enforce}
if [[ ${cores} -lt 4 ]]; then scale_enforce=0; fi

check batch_reps_speedup  "${batch}"   8.0  "${enforce}"
check sparse_tail_speedup "${tail_sp}" 5.0  "${enforce}"
check sharded_scaling_w4  "${scale}"   2.0  "${scale_enforce}"

if [[ ${fail} -eq 1 && ${strict} -eq 1 ]]; then
  echo "[trend] FAIL: a headline bar regressed (see above)" >&2
  exit 1
fi
if [[ ${fail} -eq 1 ]]; then
  echo "[trend] WARN: a headline bar was missed (run with --strict to fail)"
fi
exit 0
