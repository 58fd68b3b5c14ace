#!/usr/bin/env bash
# Builds the benchmark and cgserver from the checkout it is run in, then
# runs one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload stackoverflow --seed 1 --seconds 55 --trace 0
#
# Build outputs, the Go build cache and the run's temporary WAL
# directories all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac

export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOPATH=$build/go-path \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
mkdir -p "$GOCACHE" "$GOTMPDIR" "$build/bin"

# Build output goes to stderr: the last line of stdout is the result.
(cd "$bench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/cgserver" cuckoograph/cmd/cgserver) >&2

exec "$build/bin/perfbench" -cgserver "$build/bin/cgserver" -tmp "$build/tmp" "$@"
