#!/bin/sh
# Prints scripts/loc.sh for BASE and for the working tree side by side with
# the per-package delta — the number a simplification PR reports.
#
#   scripts/loc-diff.sh BASE    BASE is any revision; it is checked out into
#                               a temporary git worktree, measured with this
#                               tree's loc.sh, and removed again
set -eu
base="${1:?usage: scripts/loc-diff.sh BASE}"
here="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'git -C "$here" worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git -C "$here" worktree add --quiet --detach "$tmp/base" "$base"
sh "$here/scripts/loc.sh" "$tmp/base" >"$tmp/base.txt"
sh "$here/scripts/loc.sh" "$here" >"$tmp/head.txt"
awk -v base="$base" '
	{
		n = $1
		sub(/^ *[0-9]+  /, "")
		if (FILENAME == ARGV[1]) b[$0] = n; else h[$0] = n
		seen[$0] = 1
	}
	function row(name) { return sprintf("%7d %7d %+7d  %s", b[name], h[name], h[name] - b[name], name) }
	END {
		printf "%7s %7s %7s  (base = %s)\n", "base", "head", "delta", base
		for (name in seen)
			if (name != "total" && name != "internal/ (subtotal)") print row(name) | "sort -k4"
		close("sort -k4")
		print row("internal/ (subtotal)")
		print row("total")
	}' "$tmp/base.txt" "$tmp/head.txt"
