#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark inside the
# checkout and runs it. Everything the Go toolchain writes (build cache,
# temporary files, the binaries) stays under .bench_build, so a run reads
# and writes nothing outside the checkout. `go run ./benchmark` from the
# repository root is the same program with the toolchain's default cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# No module downloads, no toolchain switch, and no VCS stamping (the
# checkout may sit inside someone else's work tree).
export GOTOOLCHAIN=local GOFLAGS="-buildvcs=false" GOPROXY=off
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
