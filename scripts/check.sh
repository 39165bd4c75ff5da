#!/bin/sh
# check.sh — the repository's full local gate: formatting, vet, the
# race-enabled test suite, the tier-1 build/test pass ROADMAP.md promises to
# keep green, and the benchmark module's own gate. Run via `make check` or
# directly.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
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

echo "check: OK"
