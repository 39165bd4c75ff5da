#!/usr/bin/env bash
# Builds the benchmark from source into <repo>/.bench_build and runs it with
# the given arguments. This is the command BENCHMARK.json names; every
# subcommand of the binary (run, ladder, compare) goes through it too.
# Nothing is read or written outside the checkout: the Go build cache lives
# in .bench_build as well.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/netfi-bench" .) >&2
BENCH_HOME="$here" exec "$build/netfi-bench" "$@"
