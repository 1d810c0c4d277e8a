#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from the checkout
# it is run in and runs it. bench/ is a module of its own (bench/go.mod
# replaces ghm with the checkout around it), so the repo's own
# `go build ./...` and `go test ./...` do not see it. Everything the Go
# toolchain writes — build cache, temporary files, the binary — stays under
# .bench_build/ in that checkout, so a run reads and writes nothing outside
# it. Run from the root of the checkout; arguments go to the benchmark
# unchanged.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/ghm-bench" .
exec "$build/ghm-bench" "$@"
