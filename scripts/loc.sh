#!/bin/sh
# loc.sh — the tracked size of the code base (ROADMAP aim 2): non-test and
# test Go lines, over the files git tracks or would track (untracked files
# that are not ignored count, so a PR can quote its number before staging;
# build outputs and scratch never do).
#
# The non-test count is a ratchet: api/loc.txt holds its committed ceiling,
# so a PR that grows the code base says so in its diff of that file.
#
#   scripts/loc.sh          prints "non-test <n>  test <m>"
#   scripts/loc.sh -check   also fails when non-test exceeds the ceiling
#   scripts/loc.sh -update  rewrites the ceiling to the current count
set -e
cd "$(dirname "$0")/.."
ceiling=api/loc.txt
lines() { # $1: grep flag selecting (-v: excluding) _test.go files
	git ls-files -z --cached --others --exclude-standard -- '*.go' |
		grep -z $1 '_test\.go$' | xargs -0 cat | wc -l
}
nontest=$(lines -v)
echo "non-test $nontest  test $(lines -e)"
case "${1:-}" in
-update)
	echo "$nontest" >"$ceiling"
	echo "loc: updated $ceiling"
	;;
-check)
	max=$(cat "$ceiling")
	if [ "$nontest" -gt "$max" ]; then
		echo "loc: non-test lines $nontest exceed the ceiling $max in $ceiling." >&2
		echo "loc: if the growth is intentional, run scripts/loc.sh -update and commit." >&2
		exit 1
	fi
	echo "loc: non-test lines within the ceiling $max"
	;;
esac
