#!/usr/bin/env bash
# Runs the regression-tracked benchmark set and writes benchmarks/latest.txt.
#
# Environment:
#   BENCH_PATTERN  go test -bench regexp   (default: the tracked hot-path set)
#   BENCH_TIME     go test -benchtime      (default: 1s; CI smoke uses 0.2s)
#   BENCH_COUNT    go test -count          (default: 1)
#   BENCH_CPU      go test -cpu list       (default: unset = current GOMAXPROCS;
#                  CI smoke uses "1,4" to catch worker-pool scaling regressions)
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-^(BenchmarkFig1ModCounters|BenchmarkTable1Row[1-5]|BenchmarkTable1Row1NoIncremental|BenchmarkTable1Row4LevelSharing|BenchmarkCrossProductLarge|BenchmarkClosure|BenchmarkWeakestEdgeDescent|BenchmarkSensorNetworkScale|BenchmarkApplyAll|BenchmarkWeakestEdges|BenchmarkServerGenerate|BenchmarkServerGenerateNoObsv|BenchmarkGenerateCacheHit|BenchmarkServerGenerateCached|BenchmarkHandleUpdateDurable)$}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-1}"
CPU="${BENCH_CPU:-}"

mkdir -p benchmarks
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" -count "$COUNT" ${CPU:+-cpu "$CPU"} . | tee benchmarks/latest.txt
