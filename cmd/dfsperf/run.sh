#!/usr/bin/env bash
# Builds dfsperf from the source tree it sits in and runs it with the given
# arguments, e.g.
#
#   bash cmd/dfsperf/run.sh --workload pool_cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, data directories, traces) stays under
# .bench_build/ in that root, and no module is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/cmd/dfsperf" build -o "$out/bin/dfsperf" .
exec "$out/bin/dfsperf" -root "$root" "$@"
