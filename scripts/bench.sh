#!/bin/sh
# bench.sh — run the performance benchmarks and record the results as
# BENCH_<date>.json in the repository root (ns/op, trials/sec, allocs/op,
# and the custom metrics the benchmarks report). Re-running on the same day
# merges into the existing file: same-name records are replaced, benchmarks
# the new run did not execute survive.
#
# Usage:
#   sh scripts/bench.sh          full run (go's default -benchtime)
#   sh scripts/bench.sh -short   smoke run (-benchtime=1x), used by CI: one
#                                iteration is not a measurement, so the report
#                                goes to a temp file (path printed on the last
#                                line) and never into a BENCH_<date>.json
set -eu
cd "$(dirname "$0")/.."

benchtime=""
if [ "${1:-}" = "-short" ]; then
    benchtime="-benchtime=1x"
fi

date=$(date +%Y-%m-%d)
out="BENCH_${date}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench (kernel + datapath + campaign + monitor throughput)"
# shellcheck disable=SC2086  # benchtime is intentionally word-split
go test -run '^$' \
    -bench '^(BenchmarkKernel|BenchmarkCampaignThroughput|BenchmarkKernelEventThroughput|BenchmarkFIFOInjectorPassThrough|BenchmarkFIFOInjectorPerSymbol|BenchmarkFIFOInjectorArmed|BenchmarkMonitorTap|BenchmarkMonitorFlowExport|BenchmarkChaosFork|BenchmarkChaosRebuild|BenchmarkChaosSweep|BenchmarkFabricSharded)$' \
    -benchmem $benchtime . ./internal/campaign | tee "$raw"

if [ -n "$benchtime" ]; then
    out=$(mktemp)
    go run ./scripts/benchjson < "$raw" > "$out"
elif [ -f "$out" ]; then
    go run ./scripts/benchjson -merge "$out" < "$raw" > "$out.tmp"
    mv "$out.tmp" "$out"
else
    go run ./scripts/benchjson < "$raw" > "$out"
fi
echo "wrote $out"
