#!/bin/sh
# Prints scripts/loc.sh for BASE and for the working tree side by side with
# the per-package deltas, non-test and _test.go lines each — the numbers a
# simplification PR reports.
#
#   scripts/loc-diff.sh BASE    BASE is any revision; a `git archive` of it
#                               is unpacked into a temporary directory,
#                               measured with this tree's loc.sh, and
#                               removed again
set -eu
base="${1:?usage: scripts/loc-diff.sh BASE}"
here="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$here" archive "$base" | tar -x -C "$tmp/base"
sh "$here/scripts/loc.sh" "$tmp/base" >"$tmp/base.txt"
sh "$here/scripts/loc.sh" "$here" >"$tmp/head.txt"
awk -v base="$base" '
	FNR == 1 { next } # loc.sh column header
	{
		code = $1
		test = $2
		sub(/^ *[0-9]+ +[0-9]+  /, "")
		if (FILENAME == ARGV[1]) { bc[$0] = code; bt[$0] = test } else { hc[$0] = code; ht[$0] = test }
		seen[$0] = 1
	}
	function row(name) {
		return sprintf("%7d %7d %+7d  %7d %7d %+7d  %s", bc[name], hc[name], hc[name] - bc[name],
			bt[name], ht[name], ht[name] - bt[name], name)
	}
	END {
		printf "%23s  %23s\n", "non-test", "_test.go"
		printf "%7s %7s %7s  %7s %7s %7s  (base = %s)\n", "base", "head", "delta", "base", "head", "delta", base
		for (name in seen)
			if (name != "total" && name != "internal/ (subtotal)") print row(name) | "sort -k7"
		close("sort -k7")
		print row("internal/ (subtotal)")
		print row("total")
	}' "$tmp/base.txt" "$tmp/head.txt"
