#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the two binaries under test and
# the benchmark itself from this checkout into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout), then runs the
# benchmark from the checkout root with the caller's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
go build -o "$out/bin/" ./cmd/minoaner ./cmd/minoanerd
go build -C benchmark -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -bin "$out/bin" "$@"
