#!/bin/sh
# Reproduction gate: `go run ./cmd/mzexp` at full scale must print
# results_full_scale.txt again, apart from the "  (id in 1.2s)" timing
# line after each experiment. Every simulated estimator splits its trials
# into a fixed number of seeded shares, so the output is a function of the
# seeds alone and the gate holds at any GOMAXPROCS. About 20 s at one P.
#
#   scripts/repro.sh    exits non-zero and prints a unified diff when the
#                       output moved
set -eu
here="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# untimed FILE: FILE without its timing lines.
untimed() {
	grep -v '^  ([^ ]* in [^)]*)$' "$1"
}

(cd "$here" && go run ./cmd/mzexp) >"$tmp/out"
untimed "$here/results_full_scale.txt" >"$tmp/want"
untimed "$tmp/out" >"$tmp/got"
if ! diff -u "$tmp/want" "$tmp/got"; then
	echo "repro: mzexp no longer prints results_full_scale.txt (timing lines aside)" >&2
	exit 1
fi
echo "repro: mzexp reproduces results_full_scale.txt ($(wc -l <"$tmp/want") untimed lines)"
