#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source and runs
# it from the checkout root with the caller's arguments. Everything the build
# writes — binary, Go build cache, module cache, toolchain counters — goes to
# .bench_build/ inside the checkout; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/flexvc-bench" .
)
cd "$root"
exec "$build/flexvc-bench" "$@"
