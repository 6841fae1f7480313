#!/usr/bin/env bash
# Crash-safety smoke for the sweep journal: an injected kill at every task
# boundary, a torn journal append, a graceful drain and a real mid-run
# SIGKILL must each resume to reports byte-identical to an uninterrupted
# run; an injected journal I/O failure, an invalid RADIOCAST_FAULT and the
# two --resume misuses must fail loudly.
#
#   tests/scripts/crash.sh path/to/radiocast_bench
set -euo pipefail

bench=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

flags=(--quick --timing=off)
# Reference: an uninterrupted run; the journal must be gone after the
# reports land.
"$bench" sweep "${flags[@]}" --out=cs_clean > /dev/null
test ! -e cs_clean/sweep.journal

# Runs the bench with RADIOCAST_FAULT=$1 and the remaining arguments, and
# fails unless it exits with status $2.
expect_status() {
  local fault=$1 want=$2 status
  shift 2
  RADIOCAST_FAULT="$fault" "$bench" "$@" > /dev/null 2>&1 \
    && status=0 || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "RADIOCAST_FAULT=$fault: exit $status, expected $want" >&2
    exit 1
  fi
}

# Resumes the sweep in $1 and diffs its reports against $2.
resume_matches() {
  "$bench" sweep "${flags[@]}" --resume="$1" > /dev/null
  diff "$2/sweep.csv" "$1/sweep.csv"
  diff "$2/sweep.json" "$1/sweep.json"
}

# Kill at EVERY task boundary (the quick grid = 6 tasks): the injected
# kill is a raw _Exit(137) right after the record fsync, and the resumed
# run must emit byte-identical reports.
for i in 0 1 2 3 4 5; do
  rm -rf cs_kill
  expect_status "kill@$i" 137 sweep "${flags[@]}" --out=cs_kill
  test -e cs_kill/sweep.journal
  # The kill fires after task i's record is durable, so it must be there.
  grep -q "^R [0-9a-f]* {\"task\":$i," cs_kill/sweep.journal
  resume_matches cs_kill cs_clean
  test ! -e cs_kill/sweep.journal
done

# Torn append: the 3rd journal record dies half-written and unsynced
# (exit 134); resume drops the tail and still matches.
expect_status "abort@3" 134 sweep "${flags[@]}" --out=cs_abort
resume_matches cs_abort cs_clean

# Graceful drain: a shutdown request mid-grid finishes in-flight tasks,
# journals them, and exits 75 (resumable, not failed).
expect_status "sigint@1" 75 sweep "${flags[@]}" --out=cs_int
test -e cs_int/sweep.journal
resume_matches cs_int cs_clean

# A REAL SIGKILL mid-run on a longer grid (64 task boundaries, seconds of
# work), then resume + diff against a clean run.
rflags=(--family=gnp --n=8192 --p=deg:8 --protocol=decay --medium=scalar
        --reps=512 --lanes=8 --timing=off --threads=2)
"$bench" sweep "${rflags[@]}" --out=rk_clean > /dev/null
caught=0
for attempt in 1 2 3 4 5; do
  rm -rf rk_kill
  "$bench" sweep "${rflags[@]}" --out=rk_kill > /dev/null &
  pid=$!
  sleep 1
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" && status=0 || status=$?
  if [ -e rk_kill/sweep.journal ]; then
    test "$status" -eq 137  # killed, not finished
    caught=1
    break
  fi
done
test "$caught" -eq 1
"$bench" sweep "${rflags[@]}" --resume=rk_kill > /dev/null
diff rk_clean/sweep.csv rk_kill/sweep.csv
diff rk_clean/sweep.json rk_kill/sweep.json

# An injected journal-append I/O failure is a hard error.
if RADIOCAST_FAULT=io-fail@2 "$bench" sweep "${flags[@]}" --out=cs_io \
    > /dev/null 2>&1; then
  echo "expected injected I/O failure to fail" >&2
  exit 1
fi
# Invalid fault grammar must fail loudly, not run clean.
if RADIOCAST_FAULT=bogus "$bench" sweep "${flags[@]}" --out= \
    > /dev/null 2>&1; then
  echo "expected invalid RADIOCAST_FAULT to fail" >&2
  exit 1
fi
# --resume without a journal (reports were disabled, or the sweep already
# finished) must refuse instead of silently starting over.
mkdir cs_none
if "$bench" sweep "${flags[@]}" --resume=cs_none > /dev/null 2>&1; then
  echo "expected --resume without a journal to fail" >&2
  exit 1
fi
# --resume cannot be combined with --checkpoint=off.
if "$bench" sweep "${flags[@]}" --resume=cs_clean --checkpoint=off \
    > /dev/null 2>&1; then
  echo "expected --resume with --checkpoint=off to fail" >&2
  exit 1
fi

echo "crash smoke: ok"
