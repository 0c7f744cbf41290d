#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build and the run write lands under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$build/pdht-loadbench" .) >&2
cd "$root"
exec "$build/pdht-loadbench" -scratch "$build" "$@"
