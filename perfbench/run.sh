#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument passes through (see main.go). Run it from the repository root:
#
#   bash perfbench/run.sh --workload cli_resume --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory: build cache, module cache,
# temporary files, scratch campaign data, results and traces.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
