#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash svcbench/run.sh --workload hot-repeat --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, its temporary files and configuration
# directory, the binary, and the run reports.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" --out "$build/runs" "$@"
