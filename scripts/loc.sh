#!/bin/sh
# Prints non-blank, non-comment Go lines per package (directory) in two
# columns, non-test files and _test.go files, with a subtotal for
# internal/ and a grand total. ROADMAP's north star makes net-negative
# line counts a goal; the first column is the number it means, and the
# second shows code moved into test files as a move, not a reduction.
#
#   scripts/loc.sh [ROOT]    ROOT defaults to the repository root, so a
#                            checkout of another commit can be measured
#                            with the same script
set -eu
root="${1:-$(dirname "$0")/..}"
cd "$root"
find . -name '*.go' ! -path './benchmark/out/*' ! -path '*/.*/*' |
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
		t = FILENAME ~ /_test\.go$/
		seen[pkg] = 1
		n[pkg, t]++
		total[t]++
		if (pkg ~ /^internal\//) internal[t]++
	}
	END {
		printf "%7s %7s\n", "code", "test"
		for (p in seen) printf "%7d %7d  %s\n", n[p, 0], n[p, 1], p | "sort -k3"
		close("sort -k3")
		printf "%7d %7d  internal/ (subtotal)\n", internal[0], internal[1]
		printf "%7d %7d  total\n", total[0], total[1]
	}'
