#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, like everything else it writes) and runs it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/ps2bench" . >&2
cd "$root"
exec "$build/ps2bench" "$@"
