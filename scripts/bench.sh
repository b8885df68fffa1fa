#!/usr/bin/env bash
# Runs the regression-tracked benchmark set and writes benchmarks/latest.txt.
#
# Environment:
#   BENCH_PATTERN  go test -bench regexp   (default: the tracked hot-path set)
#   BENCH_TIME     go test -benchtime      (default: 1s; CI smoke uses 0.2s)
#   BENCH_COUNT    rounds of the whole set (default: 1; a run promoted
#                  with bench-update.sh needs 5)
#   BENCH_CPU      go test -cpu list       (default: unset = current GOMAXPROCS;
#                  CI smoke uses "1,4" to catch worker-pool scaling regressions)
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-^(BenchmarkFig1ModCounters|BenchmarkTable1Row[1-5]|BenchmarkSensorCountersTop|BenchmarkCrossProductLarge|BenchmarkClosure|BenchmarkWeakestEdgeDescent|BenchmarkSensorNetworkScale|BenchmarkApplyAll|BenchmarkWeakestEdges|BenchmarkFaultGraphBuild|BenchmarkServerGenerate|BenchmarkServerGenerateNoObsv|BenchmarkGenerateCacheHit|BenchmarkServerGenerateCached|BenchmarkHandleUpdateDurable)$}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-1}"
CPU="${BENCH_CPU:-}"

# BENCH_COUNT rounds of the whole set rather than go test -count, which
# takes a row's samples back to back: spread over every round, a row's
# minimum is far less likely to come from one loaded stretch of a shared
# machine.
mkdir -p benchmarks
: > benchmarks/latest.txt
for _ in $(seq "$COUNT"); do
  go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" ${CPU:+-cpu "$CPU"} . | tee -a benchmarks/latest.txt
done
