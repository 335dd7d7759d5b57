#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload flat --seed 1 --seconds 36 --trace 0
#
# The build cache, the binary, the toolchain's telemetry counters, and
# every file a run writes (WAL directories, span and result records)
# stay under .bench_build/ in the repository root. Progress goes to
# stderr; the last line of stdout is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
