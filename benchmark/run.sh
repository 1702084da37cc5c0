#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from the
# checkout it sits in — so the numbers are those of the code next to it —
# and runs it from the benchmark's directory. Everything it writes
# (build cache, binary, data dirs, traces, reports) stays under
# benchmark/.build and benchmark/out.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
here="$PWD"
mkdir -p .build
export GOCACHE="$here/.build/gocache" GOPATH="$here/.build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o .build/benchmark .
exec .build/benchmark "$@"
