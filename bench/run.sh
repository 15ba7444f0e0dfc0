#!/usr/bin/env bash
# What BENCHMARK.json's command runs, from the root of a checkout: build
# the benchmark with every build product inside the checkout, then run
# it with the arguments given. `go run ./bench ...` does the same with
# the user's own build cache.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
