#!/bin/sh
# benchrun.sh — run benchmarks so they cannot rot: `go test -bench <regex>`
# exits 0 when a renamed benchmark matches nothing, so this fails unless
# every name the regex lists (its words between | ( ) / ^ $) shows up in at
# least one "Benchmark…" result line.
#
#   scripts/benchrun.sh '<regex>' <other go test arguments and packages>
set -e
[ $# -ge 2 ] || { echo "usage: scripts/benchrun.sh '<regex>' <go test arguments>" >&2; exit 2; }
re=$1
shift
cd "$(dirname "$0")/.."
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench "$re" "$@" >"$out" 2>&1 || { cat "$out"; exit 1; }
cat "$out"
for name in $(echo "$re" | tr '|()/^$' '       '); do
	grep -q "^Benchmark[^ ]*$name" "$out" || { echo "benchrun: no benchmark named $name ran" >&2; exit 1; }
done
