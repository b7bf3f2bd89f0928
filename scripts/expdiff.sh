#!/bin/sh
# expdiff.sh — does a refactor leave every experiment's output alone?
#
# Builds tarbench from <git-ref> (a `git archive` export, so nothing is
# checked out or left behind) and from the working tree, runs every
# experiment on both at a small fixed configuration, and compares per
# experiment that both sides run:
#   - the printed tables, with the columns that hold wall-clock time masked
#     ("(ms)", ms/..., qps) and the "[... completed in ...]" lines dropped;
#   - the TIA probe totals of the BENCH_<id>.json snapshot;
# plus the calibration experiment's -explain-out rows, byte for byte.
# Ids only one side runs are listed as removed or added; they fail nothing.
#
#   scripts/expdiff.sh <git-ref>    e.g. scripts/expdiff.sh HEAD~1
#
# Exit 0 with "N/N experiments identical", else 1 after the diffs.
set -e
[ $# -eq 1 ] || { echo "usage: scripts/expdiff.sh <git-ref>" >&2; exit 2; }
ref=$1
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src" "$tmp/ref" "$tmp/new"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/ref/tarbench" ./cmd/tarbench)
go build -o "$tmp/new/tarbench" ./cmd/tarbench

# mask rewrites tarbench's stdout into one file per experiment, <dir>/<id>.txt:
# table cells split on runs of two or more spaces (padding depends on the
# widest cell, which may be a time) and re-joined with tabs, volatile columns
# replaced by "~".
mask='
/^\[snapshot written to / { next }
/^\[.* completed in / { id = substr($1, 2); for (i = 1; i <= n; i++) print buf[i] > (dir "/" id ".txt"); n = 0; next }
/^  / {
	line = substr($0, 3)
	if (!intable) { intable = 1; cols = split(line, h, /  +/); for (i = 1; i <= cols; i++) vol[i] = (h[i] ~ /\(ms\)|^ms\/|qps/) }
	else if (line ~ /^-+(  +-+)*$/) next
	c = split(line, cell, /  +/); line = ""
	for (i = 1; i <= c; i++) line = line (i > 1 ? "\t" : "") (vol[i] && intable > 1 ? "~" : cell[i])
	intable = 2; buf[++n] = line; next
}
{ intable = 0; if ($0 != "") buf[++n] = $0 }
'
for side in ref new; do
	(
		cd "$tmp/$side"
		# A failing experiment stops the script here (set -e), so an id
		# missing from one side below was removed or added, not crashed.
		for group in all ablations; do
			./tarbench -exp $group -datasets GS -scale 0.06 -queries 10 -seed 1 -json json -explain-out explain.jsonl >>out.log
		done
		awk -v dir=. "$mask" out.log
		for snap in json/BENCH_*.json; do
			id=${snap#json/BENCH_}
			tr -d '\n ' <"$snap" | sed 's/.*"tia_probes":\({[^}]*}\).*/tia_probes \1/' >>"${id%.json}.txt"
			echo >>"${id%.json}.txt"
		done
	)
done

total=0
same=0
for f in "$tmp"/ref/*.txt; do
	id=$(basename "$f" .txt)
	if [ ! -e "$tmp/new/$id.txt" ]; then echo "removed since $ref: $id"; continue; fi
	total=$((total + 1))
	if diff -u "$f" "$tmp/new/$id.txt"; then same=$((same + 1)); else echo "^^^ $id differs from $ref"; fi
done
for f in "$tmp"/new/*.txt; do
	id=$(basename "$f" .txt)
	[ -e "$tmp/ref/$id.txt" ] || echo "added since $ref: $id"
done
cmp "$tmp/ref/explain.jsonl" "$tmp/new/explain.jsonl" || { echo "calibration -explain-out rows differ from $ref"; same=-1; }
echo "$same/$total experiments identical to $ref"
[ "$same" -eq "$total" ]
