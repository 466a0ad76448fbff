#!/usr/bin/env bash
# The BENCHMARK.json command. It builds the benchmark from the sources of
# the checkout it is run in and keeps every file the build and the run
# write inside that checkout, under .bench_build/ (the build cache, the
# binary, and the temp dirs for data dirs, crash images and span files).
# Arguments pass through; `go run ./benchmark` runs the same program with
# the toolchain's usual cache and temp locations.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/veridb-benchmark" ./benchmark
# What an earlier run kept (span files) goes before this one starts.
rm -rf "$build"/tmp/veridb-benchmark-*
exec "$build/veridb-benchmark" "$@"
