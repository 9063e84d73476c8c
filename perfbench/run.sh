#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload tpch-hot --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15
#
# Everything the build and the run write goes under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) at the root of the tree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
bin="$out/perfbench"
(cd "$here" && go build -o "$bin" .) >&2
export PERFBENCH_DIR="$out"
exec "$bin" "$@"
