#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/lobster-benchmark" .) >&2
exec "$build/lobster-benchmark" -workdir "$build" "$@"
