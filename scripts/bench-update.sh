#!/usr/bin/env bash
# Promotes benchmarks/latest.txt to benchmarks/baseline.txt after review.
# The regression gate compares per-row minima of BENCH_COUNT runs, so a
# baseline must hold at least that many samples of every row: run
#   BENCH_COUNT=5 scripts/bench.sh
# on a quiet machine first. BENCH_COUNT (default 5) sets the required
# number of samples.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f benchmarks/latest.txt ]; then
  echo "benchmarks/latest.txt not found; run BENCH_COUNT=5 scripts/bench.sh first" >&2
  exit 1
fi

want="${BENCH_COUNT:-5}"
short="$(awk -v want="$want" '/^Benchmark/ { n[$1]++ } END { for (k in n) if (n[k] < want) print k " (" n[k] ")" }' benchmarks/latest.txt)"
if [ -n "$short" ]; then
  echo "benchmarks/latest.txt has fewer than $want samples of:" >&2
  echo "$short" >&2
  echo "rerun BENCH_COUNT=$want scripts/bench.sh before promoting" >&2
  exit 1
fi

cp benchmarks/latest.txt benchmarks/baseline.txt
echo "promoted benchmarks/latest.txt -> benchmarks/baseline.txt"
