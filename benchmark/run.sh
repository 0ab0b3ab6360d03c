#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the Go toolchain writes (build cache, temporary
# files, the binary) stays under .bench_build in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/campaignbench" ./benchmark
exec "$build/campaignbench" "$@"
