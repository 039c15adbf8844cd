#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the arguments given. Build cache and binary go to .bench_build at the
# checkout's root, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/cwc-bench" .
exec "$build/cwc-bench" "$@"
