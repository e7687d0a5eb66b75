#!/bin/sh
# Runs every Fuzz* function in the module under -fuzz, one after another:
# go test fuzzes one function per invocation. Tier-1 `go test` runs only
# their seed corpora; this explores past them.
#
#   scripts/fuzz.sh             each function fuzzes for FUZZTIME
#
# Environment:
#   FUZZTIME   how long each function fuzzes (default 10s), in go test's
#              -fuzztime syntax
#
# A failing input is written under its package's testdata/fuzz/ by go
# test, where the seed-corpus run replays it. The script runs every
# function, then exits non-zero if any failed.
set -eu
cd "$(dirname "$0")/.."
fuzztime="${FUZZTIME:-10s}"
status=0
count=0
for file in $(grep -rl --include='*_test.go' '^func Fuzz' . | sort); do
	pkg="$(dirname "$file")"
	for fn in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
		count=$((count + 1))
		echo "== $pkg $fn ($fuzztime)"
		if ! go test -run '^$' -fuzz "^$fn\$" -fuzztime "$fuzztime" "$pkg"; then
			echo "$pkg $fn: FAILED" >&2
			status=1
		fi
	done
done
echo "$count fuzz functions, $fuzztime each"
exit "$status"
