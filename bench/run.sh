#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): go run ./bench with
# the toolchain's build cache and temporary files kept inside the checkout,
# under .bench_build/, so a run reads and writes nothing outside it.
set -eu
mkdir -p .bench_build/gocache .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
exec go run ./bench "$@"
