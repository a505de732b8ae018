#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it from the root with the given flags, e.g.
#
#   bash bench/run.sh -workload table5-sweep -seed 1 -seconds 16 -trace 0
#
# The benchmark is a Go module of its own that reaches the simulator
# through a replace directive, so it only builds inside a full checkout.
# The Go build cache, the go command's own state (GOPATH, and telemetry
# counters under XDG_CONFIG_HOME) and every temporary file stay under
# .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/smores-bench-harness" . >&2
exec "$out/smores-bench-harness" "$@"
