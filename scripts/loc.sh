#!/bin/sh
# loc.sh — the tracked size of the code base (ROADMAP aim 2): non-test and
# test Go lines, over the files git tracks or would track (untracked files
# that are not ignored count, so a PR can quote its number before staging;
# build outputs and scratch never do).
#
#   scripts/loc.sh    prints "non-test <n>  test <m>"
set -e
cd "$(dirname "$0")/.."
lines() { # $1: grep flag selecting (-v: excluding) _test.go files
	git ls-files -z --cached --others --exclude-standard -- '*.go' |
		grep -z $1 '_test\.go$' | xargs -0 cat | wc -l
}
echo "non-test $(lines -v)  test $(lines -e)"
