#!/bin/sh
# check.sh — the repository's full local gate: formatting, stale references
# to the retired benchmark path, vet, the race-enabled test suite, the tier-1
# build/test pass ROADMAP.md promises to keep green, the benchmark module's
# own gate and one quick run of the benchmark. Run via `make check` or
# directly.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

# bench/ is the one instrument. Nothing outside it (and outside the
# project's history files) may point at the benchmark path it replaced. The
# bracketed letters keep the pattern from matching this file.
stale=$(git ls-files -z | grep -zv -e '^bench/' -e '^CHANGES\.md$' -e '^ROADMAP\.md$' -e '^ISSUE\.md$' |
    xargs -0 grep -nE 'BENCH_[2]0|scripts/bench[.]sh|bench[j]son|Benchmark[A-Z]' -- || true)
if [ -n "$stale" ]; then
    echo "stale references to the retired benchmark path:" >&2
    echo "$stale" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== tier-1: go build ./... && go test ./..."
go build ./...
go test ./...

# bench/ is a module of its own, so ./... above never builds it; an API
# change under internal/ that its ladder calls would otherwise break the
# benchmark silently.
echo "== bench: go vet ./... && go test -short ./..."
(cd bench && go vet ./... && go test -short ./...)

# Every workload once, two repetitions: fingerprints identical across
# repetitions, worker counts and shard counts, no failed operation. These
# checks hold on any hardware; the run's time metrics gate nothing here.
echo "== bench: bash bench/run.sh run -quick"
bash bench/run.sh run -quick

echo "check: OK"
