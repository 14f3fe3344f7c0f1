#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from and executes it with the given arguments. Everything the build
# writes (binary, Go build cache, temporary files, toolchain counters) stays
# inside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOFLAGS= \
	go -C "$here" build -buildvcs=false -o "$build/rio-benchmark" .
exec "$build/rio-benchmark" "$@"
