#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, module path, telemetry directory and the binary under
# .bench_build/; results, traces and temp files under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/bench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off
	go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
