#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload gen-cold --seed 1 --seconds 20 --trace 0
# Build output, the Go build cache and run scratch space all stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOCACHE="${build}/gocache" GOTMPDIR="${build}"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export GOMODCACHE="${build}/gomodcache" XDG_CONFIG_HOME="${build}/config"
(cd "${root}/perfbench" && go build -o "${build}/perfbench.new" .) >&2
# Replace the binary only when it changed: rewriting 12 MB before every
# run would leave its writeback to land on the run's own fsyncs.
if cmp -s "${build}/perfbench.new" "${build}/perfbench"; then
	rm "${build}/perfbench.new"
else
	mv "${build}/perfbench.new" "${build}/perfbench"
fi
exec "${build}/perfbench" --work-dir "${build}/work" "$@"
