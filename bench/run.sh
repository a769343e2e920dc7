#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh                                  # all five workloads, 3 reps each
#   bash bench/run.sh -workload tail-policy -reps 5
#   bash bench/run.sh -trace 1 -spans .bench_build/spans.json
#   bash bench/run.sh -compare parent.json change.json
#
# The Go build cache, temporary files, the go command's config directory
# (telemetry counters) and the binary all live under .bench_build/ in the
# current directory, so a run writes nothing outside it. The build fails,
# and the script exits non-zero without printing a result, when the
# directory holds no simulator sources.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/simrbench" .)
exec "$out/simrbench" "$@"
