#!/usr/bin/env bash
# Regression gate for the Algorithm 2 hot path: runs the five Table 1 rows
# (BenchmarkTable1Row1-5), the single-closure row (BenchmarkClosure) and
# the 720-weakest-edge descent row (BenchmarkWeakestEdgeDescent)
# BENCH_COUNT times (default 5) at BENCH_TIME each (default 1s) and fails
# when any row's minimum ns/op regressed more than
# BENCH_MAX_REGRESSION_PCT (default 15) against the minimum of the same
# row in benchmarks/baseline.txt. The minimum of several runs is the
# least load-sensitive estimator of a CPU-bound row: one run per row
# against a 15% bound failed two of three times on unchanged code on a
# shared VM. At 0.3s the fast rows get too few iterations to settle, so
# 1s is the floor for a meaningful gate. Reuses bench.sh for the run and
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

BENCH_PATTERN='^(BenchmarkTable1Row[1-5]|BenchmarkClosure|BenchmarkWeakestEdgeDescent)$' \
BENCH_TIME="${BENCH_TIME:-1s}" \
BENCH_COUNT="${BENCH_COUNT:-5}" \
  scripts/bench.sh

BENCH_MAX_REGRESSION_PCT="${BENCH_MAX_REGRESSION_PCT:-15}" scripts/bench-compare.sh
