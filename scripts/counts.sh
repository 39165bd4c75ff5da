#!/bin/sh
# counts.sh — the size counts ROADMAP.md tracks, all over non-test Go files
# under internal/ and cmd/: lines, panic( sites, Stats() methods, and
# exported fields in *Config/*Options structs; plus the _test.go line count
# there, so a change can tell removed lines from lines moved into tests.
# Informational only: it gates nothing. Run via `make counts` or directly.
set -eu
cd "$(dirname "$0")/.."

files=$(find internal cmd -name '*.go' ! -name '*_test.go' | sort)
tests=$(find internal cmd -name '*_test.go' | sort)
# shellcheck disable=SC2086 # one path per word; Go file names hold no spaces
lines=$(cat $files | wc -l)
# shellcheck disable=SC2086
testlines=$(cat $tests | wc -l)
# shellcheck disable=SC2086
panics=$(grep -h 'panic(' $files | wc -l)
# shellcheck disable=SC2086
stats=$(grep -h '^func (.*) Stats() ' $files | wc -l)
# A field line inside a top-level `type …Config struct {` or
# `type …Options struct {` block counts each exported name it declares
# (`A, B int` is two).
# shellcheck disable=SC2086
fields=$(awk '
	/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { inside = 1; next }
	inside && /^}/ { inside = 0; next }
	inside && match($0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)*/) {
		n += split(substr($0, RSTART, RLENGTH), names, ",")
	}
	END { print n + 0 }
' $files)
echo "non-test Go lines (internal/, cmd/): $((lines))"
echo "_test.go lines (internal/, cmd/): $((testlines))"
echo "non-test panic( sites (internal/, cmd/): $((panics))"
echo "Stats() methods (internal/, cmd/): $((stats))"
echo "exported *Config/*Options fields (internal/, cmd/): $((fields))"
