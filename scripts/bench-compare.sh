#!/usr/bin/env bash
# Compares benchmarks/latest.txt against benchmarks/baseline.txt and fails
# when any benchmark's ns/op regressed by more than BENCH_MAX_REGRESSION_PCT
# percent (default 5). A row run several times (go test -count N) is
# compared by its minimum ns/op on each side, the estimator least moved by
# other load on the machine. Skips cleanly when no baseline has been
# promoted yet.
#
# The comparison is name-keyed on the "BenchmarkX-N  iters  ns/op" lines, so
# it needs no external tooling (benchstat) — suitable for hermetic CI.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="benchmarks/baseline.txt"
LATEST="benchmarks/latest.txt"
THRESHOLD="${BENCH_MAX_REGRESSION_PCT:-5}"

if [ ! -f "$BASELINE" ] || ! grep -q '^Benchmark' "$BASELINE"; then
  echo "baseline missing or empty; skipping compare"
  exit 0
fi
if [ ! -f "$LATEST" ]; then
  echo "benchmarks/latest.txt not found; run scripts/bench.sh first" >&2
  exit 1
fi

# ns/op baselines are machine-specific: comparing a laptop baseline against
# a shared CI runner measures the hardware, not the change. When the cpu
# lines differ, print the deltas for information but don't gate on them.
BASE_CPU="$(grep -m1 '^cpu:' "$BASELINE" || true)"
LATEST_CPU="$(grep -m1 '^cpu:' "$LATEST" || true)"
GATE=1
if [ "$BASE_CPU" != "$LATEST_CPU" ]; then
  echo "baseline cpu (${BASE_CPU#cpu: }) differs from this machine (${LATEST_CPU#cpu: });"
  echo "reporting deltas without gating — promote a local baseline with scripts/bench-update.sh to enable gating"
  GATE=0
fi

awk -v thr="$THRESHOLD" -v gate="$GATE" '
  # Benchmark result lines look like:
  #   BenchmarkClosure-8   24681   48496 ns/op   25080 B/op   28 allocs/op
  # Names are compared verbatim, GOMAXPROCS suffix included: a -cpu sweep
  # (CI smoke runs 1,4) produces distinct rows per cpu count, and a row
  # only gates against a baseline row measured at the same parallelism.
  # A name seen more than once (-count N) keeps its minimum.
  /^Benchmark/ {
    name = $1
    for (i = 2; i < NF; i++) {
      if ($(i + 1) == "ns/op") { ns = $i + 0; break }
    }
    if (FNR == NR) {
      if (!(name in base) || ns < base[name]) base[name] = ns
    } else {
      if (!(name in latest)) order[++n] = name
      if (!(name in latest) || ns < latest[name]) latest[name] = ns
    }
  }
  END {
    fail = 0
    matched = 0
    for (k = 1; k <= n; k++) {
      name = order[k]
      if (!(name in base)) { printf("NEW      %-50s %12.1f ns/op\n", name, latest[name]); continue }
      matched++
      delta = (latest[name] - base[name]) * 100.0 / base[name]
      printf("%-8s %-50s %12.1f -> %12.1f ns/op  (%+.1f%%)\n",
             delta > thr ? "REGRESS" : "ok", name, base[name], latest[name], delta)
      if (delta > thr) fail = 1
    }
    # A gate that compared nothing is a broken gate, not a pass: verbatim
    # names mean a GOMAXPROCS mismatch (different -cpu / machine procs)
    # yields zero overlap, and silently exiting 0 would let any regression
    # through. Re-promote a baseline at the current parallelism instead.
    if (n > 0 && matched == 0) {
      printf("no baseline rows match the current benchmark names (GOMAXPROCS suffix mismatch?)\n") > "/dev/stderr"
      if (gate) {
        printf("gating is enabled on this machine but nothing was compared; run scripts/bench-update.sh to promote a baseline at this parallelism\n") > "/dev/stderr"
        exit 1
      }
    }
    if (fail && gate) {
      printf("benchmark regression above %s%% threshold\n", thr) > "/dev/stderr"
      exit 1
    }
  }
' "$BASELINE" "$LATEST"
