#!/usr/bin/env bash
# Regression gate for the Algorithm 2 hot path: runs the five Table 1 rows
# (BenchmarkTable1Row1-5), the NoIncremental ablation row, the
# single-closure row (BenchmarkClosure) and the 720-weakest-edge descent
# row (BenchmarkWeakestEdgeDescent) at a reduced benchtime and fails when
# any row's ns/op regressed more than BENCH_MAX_REGRESSION_PCT (default 15 —
# looser than bench-compare's 5 because reduced benchtimes are noisier)
# against benchmarks/baseline.txt. The default was 0.3s until the PR 9
# pair-implication memo made the big rows 2.4–33× faster: at 0.3s the
# fast rows get too few iterations to settle (Row 4 spreads ±45%), so 1s
# is the new floor for a meaningful gate. Reuses bench.sh for the run and
# bench-compare.sh for the comparison; like bench-compare, it only gates
# when the baseline was measured on this machine's CPU.
#
# The short-benchtime result is restored out of benchmarks/latest.txt
# afterwards so a gate run can never be promoted as a baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

saved=""
if [ -f benchmarks/latest.txt ]; then
  saved="$(mktemp)"
  cp benchmarks/latest.txt "$saved"
fi
restore() {
  if [ -n "$saved" ]; then
    mv "$saved" benchmarks/latest.txt
  else
    rm -f benchmarks/latest.txt # no pre-run latest: don't leave gate noise promotable
  fi
}
trap restore EXIT

BENCH_PATTERN='^(BenchmarkTable1Row[1-5]|BenchmarkTable1Row1NoIncremental|BenchmarkClosure|BenchmarkWeakestEdgeDescent)$' \
BENCH_TIME="${BENCH_TIME:-1s}" \
  scripts/bench.sh

BENCH_MAX_REGRESSION_PCT="${BENCH_MAX_REGRESSION_PCT:-15}" scripts/bench-compare.sh
