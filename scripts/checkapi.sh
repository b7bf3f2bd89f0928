#!/bin/sh
# checkapi.sh — golden-file gate on the public API surface.
#
# The committed file api/tartree.txt is the `go doc -all`-derived surface of
# the facade package. CI regenerates it and fails on any drift, so every
# breaking (or expanding) API change shows up in review as a diff of that
# file rather than slipping in silently.
#
#   scripts/checkapi.sh          verify (exit 1 on drift)
#   scripts/checkapi.sh -update  accept the current surface as golden
set -e
cd "$(dirname "$0")/.."
golden=api/tartree.txt
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go doc -all . >"$tmp"
# Presence gate on load-bearing symbols: the golden diff catches drift, but
# a blind -update can still drop a symbol downstream code depends on. Any
# name listed here must survive in the regenerated surface, update or not.
required="
func New(
func NewExplain(
func NewPlanner(
func NewPlanEstimator(
func NewCache(
func NewMetrics(
type Explain =
type ExplainPlan =
type ExplainPop =
type ExplainPoint =
type ExplainNode =
type ExplainBand =
type Planner =
type Plan =
type Engine =
type Querier =
type QueryOpts =
type QueryStats =
type ExplainShard =
UseIndex
UseScan
ErrInvalid
ErrCanceled
"
missing=0
echo "$required" | while IFS= read -r sym; do
    [ -z "$sym" ] && continue
    if ! grep -qF "$sym" "$tmp"; then
        echo "checkapi: required symbol missing from API surface: $sym" >&2
        exit 1
    fi
done || missing=1
if [ "$missing" -ne 0 ]; then
    exit 1
fi
if [ "${1:-}" = "-update" ]; then
    cp "$tmp" "$golden"
    echo "checkapi: updated $golden"
    exit 0
fi
if ! diff -u "$golden" "$tmp"; then
    echo "checkapi: public API surface drifted from $golden." >&2
    echo "checkapi: if the change is intentional, run scripts/checkapi.sh -update and commit." >&2
    exit 1
fi
echo "checkapi: API surface matches $golden"
