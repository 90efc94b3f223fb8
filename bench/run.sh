#!/usr/bin/env bash
# Builds the benchmark command and runs it with the given flags. Run it from
# the repository root:
#
#   bash bench/run.sh --workload interp-hot --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own that reaches the repository through
# a replace directive, so it fails to build (and this script exits non-zero
# without printing a result) anywhere but inside a full source tree. The Go
# build cache, temporary files and the binary stay under .bench_build in the
# current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
