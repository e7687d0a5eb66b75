#!/bin/sh
# Mutation check: every deliberately broken copy of the code under
# testdata/mutants must be caught by the tests its patch names.
#
#   scripts/mutants.sh [REV]    REV is any revision (default HEAD); a `git
#                               archive` of it is unpacked into a temporary
#                               directory per mutant and removed again, so
#                               uncommitted changes are not measured
#
# A mutant is a patch with a header before its diff:
#
#   <what the mutant breaks, any number of lines>
#
#   Package: ./internal/cluster/
#   Run: ^(TestA|TestB)$
#
#   diff --git a/... b/...
#
# Package may name several packages, separated by spaces, when the tests
# that must catch a mutant live in more than one. Each patch is applied to
# a fresh copy of REV, the copy must still build, and `go test -count=1
# -run <Run> <Package>` must fail. Per mutant the
# script prints the tests that failed, or SURVIVED. It exits non-zero if a
# patch does not apply, a mutant does not build, or one survives.
#
# Environment:
#   RUN        overrides every patch's Run (RUN=. runs the whole package:
#              which of its tests kill the mutant, at any revision)
set -eu
rev="${1:-HEAD}"
here="$(cd "$(dirname "$0")/.." && pwd)"
mutants="$(ls "$here"/testdata/mutants/*.patch)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# field NAME PATCH: the value of a "NAME: value" header line.
field() {
	sed -n "/^diff --git /q; s/^$1: //p" "$2"
}

status=0
for p in $mutants; do
	name="$(basename "$p" .patch)"
	pkg="$(field Package "$p")"
	run="${RUN:-$(field Run "$p")}"
	rm -rf "$tmp/src"
	mkdir "$tmp/src"
	git -C "$here" archive "$rev" | tar -x -C "$tmp/src"
	if ! (cd "$tmp/src" && git apply "$p"); then
		echo "$name: does not apply to $rev" >&2
		status=1
		continue
	fi
	# $pkg unquoted: a header may name several packages.
	if ! (cd "$tmp/src" && go build ./... && go vet $pkg) >"$tmp/build.out" 2>&1; then
		echo "$name: does not build" >&2
		cat "$tmp/build.out" >&2
		status=1
		continue
	fi
	if (cd "$tmp/src" && go test -count=1 -run "$run" $pkg) >"$tmp/test.out" 2>&1; then
		echo "$name: SURVIVED $pkg -run '$run'"
		status=1
		continue
	fi
	killers="$(sed -n 's/^ *--- FAIL: \([^ ]*\).*/\1/p' "$tmp/test.out" | grep -v / | tr '\n' ' ')"
	echo "$name: killed by ${killers:-a failing run (no test named)}"
done
exit "$status"
