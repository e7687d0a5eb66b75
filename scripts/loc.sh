#!/bin/sh
# Prints non-test, non-blank, non-comment Go lines per package (directory),
# with a subtotal for internal/ and a grand total. ROADMAP's north star
# makes net-negative line counts a goal; this is the number it means.
#
#   scripts/loc.sh [ROOT]    ROOT defaults to the repository root, so a
#                            checkout of another commit can be measured
#                            with the same script
set -eu
root="${1:-$(dirname "$0")/..}"
cd "$root"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/out/*' ! -path '*/.*/*' |
	sort |
	xargs awk '
	FNR == 1 { inblock = 0 }
	{
		line = $0
		code = ""
		# Strip /* ... */ spans (possibly several, possibly multi-line),
		# keeping the code around them.
		while (line != "") {
			if (inblock) {
				i = index(line, "*/")
				if (i == 0) { line = ""; break }
				line = substr(line, i + 2)
				inblock = 0
			} else {
				i = index(line, "/*")
				if (i == 0) { code = code line; break }
				code = code substr(line, 1, i - 1)
				line = substr(line, i + 2)
				inblock = 1
			}
		}
		sub(/^[ \t]+/, "", code)
		if (code == "" || code ~ /^\/\//) next
		pkg = FILENAME
		sub(/^\.\//, "", pkg)
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		n[pkg]++
		total++
		if (pkg ~ /^internal\//) internal++
	}
	END {
		for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  internal/ (subtotal)\n", internal
		printf "%7d  total\n", total
	}'
