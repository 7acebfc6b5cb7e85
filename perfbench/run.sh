#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload flow-sweep --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain state)
# stays under .bench_build in the checkout; the build never touches the
# network.
set -euo pipefail

# The Go toolchain's usual home, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/home" "$build/tmp"

(
	cd "$root/perfbench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		GOPATH="$build/home/go" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/perfbench" .
) >&2

exec "$build/perfbench" --out .bench_build "$@"
