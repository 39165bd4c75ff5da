#!/bin/sh
# counts.sh — the two size counts ROADMAP.md tracks: non-test Go lines under
# internal/ and cmd/, and the non-test panic( sites there. Informational
# only: it gates nothing. Run via `make counts` or directly.
set -eu
cd "$(dirname "$0")/.."

files=$(find internal cmd -name '*.go' ! -name '*_test.go' | sort)
# shellcheck disable=SC2086 # one path per word; Go file names hold no spaces
lines=$(cat $files | wc -l)
# shellcheck disable=SC2086
panics=$(grep -h 'panic(' $files | wc -l)
echo "non-test Go lines (internal/, cmd/): $((lines))"
echo "non-test panic( sites (internal/, cmd/): $((panics))"
