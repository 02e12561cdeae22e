#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload smoke-1k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, module, config
# and temporary directories) stays under .bench_build/ in the repository
# root, as do the traced run's trace files, and the toolchain never
# touches the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
