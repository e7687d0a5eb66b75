#!/bin/sh
# Alternated parent/change pairs of the system benchmark — the protocol a
# wall-clock claim is made from (the host drifts by more than most gains
# over minutes; the two runs of one pair sit side by side in time).
#
#   scripts/bench-pairs.sh BASE    BASE is any revision; a `git archive` of
#                                  it is unpacked into a temporary directory
#                                  and removed again. The change is this
#                                  working tree.
#
# Each side runs its own benchmark/run.sh --workload W --seed S --seconds
# <run_seconds of BENCHMARK.json> --trace $TRACE, the side that goes first
# alternating pair by pair. Per pair it prints every metric of both sides
# with the change/parent ratio and both sim_digests; per (workload, seed)
# the medians, the parent's own spread (the distance between the quartiles
# of its runs), in how many pairs the change was the better side, and the
# verdict the method gives (choosing-metrics section 8, ROADMAP's standing
# rules), from BENCHMARK.json's `better` and `bound`:
#   better        the change wins at least 9/10 of the pairs (ties count
#                 for neither side) and the medians differ, the right way,
#                 by more than the parent's spread
#   unresolved    the parent's spread is wider than the metric's bound, so
#                 neither "no worse" nor "worse" can be told from noise —
#                 unless every run of the change beats every run of the
#                 parent, which reads within bound
#   WORSE         the change's median is worse than the parent's by more
#                 than the bound
#   within bound  none of the above; per-layer metrics fix no bound and
#                 read "better" or "-"
# With fewer than 5 pairs the parent's spread comes from too few runs to
# tell a move from the host's noise: every metric reads "unresolved
# (screen)", never better or WORSE, and fails nothing. From 5 to 9 pairs
# a "better" or "WORSE" is a screen, not a verdict, and prints as "...
# (screen: re-run at PAIRS=10)"; the exit status is the same.
# Exits non-zero on a sim_digest mismatch, a run that reports
# correct:false, or an end-to-end metric that is WORSE.
# The verdict is scripts/pairs-verdict.awk, which also judges recorded
# pairs again.
#
# Environment (make bench-pairs passes these through):
#   PAIRS      pairs per (workload, seed)            default 3
#   WORKLOADS  workload names                        default all of BENCHMARK.json
#   SEEDS      seeds                                 default "42 7"
#   TRACE      0 = end-to-end runs, 1 = traced runs  default 0
#   METRICS    metric names to print                 default BENCHMARK.json's end_to_end
set -eu
base="${1:?usage: scripts/bench-pairs.sh BASE}"
here="$(cd "$(dirname "$0")/.." && pwd)"
pairs="${PAIRS:-3}"
seeds="${SEEDS:-42 7}"
trace="${TRACE:-0}"
workloads="${WORKLOADS:-$(jq -r '.workloads[].name' "$here/BENCHMARK.json")}"
metrics="${METRICS:-$(jq -r '.end_to_end[].name' "$here/BENCHMARK.json")}"
seconds="$(jq .run_seconds "$here/BENCHMARK.json")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$here" archive "$base" | tar -x -C "$tmp/parent"

# run SIDE DIR WORKLOAD SEED: one benchmark run; leaves its last stdout
# line (the result object) in $tmp/SIDE.json and its digest in
# $tmp/SIDE.digest.
run() {
	bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace "$trace" >"$tmp/$1.out"
	tail -n 1 "$tmp/$1.out" >"$tmp/$1.json"
	sed -n 's/.*sim_digest \([0-9a-f]*\).*/\1/p' "$tmp/$1.out" >"$tmp/$1.digest"
	if [ "$(jq .correct "$tmp/$1.json")" != true ] || [ "$(jq .failed "$tmp/$1.json")" != 0 ]; then
		echo "bench-pairs: $1 run of $3 seed $4 is not correct: $(cat "$tmp/$1.json")" >&2
		exit 1
	fi
}

: >"$tmp/rows.tsv"
for w in $workloads; do
	for s in $seeds; do
		p=1
		while [ "$p" -le "$pairs" ]; do
			if [ $((p % 2)) -eq 1 ]; then
				order="parent first"
				run parent "$tmp/parent" "$w" "$s"
				run change "$here" "$w" "$s"
			else
				order="change first"
				run change "$here" "$w" "$s"
				run parent "$tmp/parent" "$w" "$s"
			fi
			pd="$(cat "$tmp/parent.digest")"
			cd="$(cat "$tmp/change.digest")"
			echo "== $w seed $s pair $p ($order): sim_digest parent $pd change $cd"
			if [ "$pd" != "$cd" ] || [ -z "$pd" ]; then
				echo "bench-pairs: sim_digest mismatch on $w seed $s" >&2
				exit 1
			fi
			for m in $metrics; do
				pv="$(jq -r --arg m "$m" '.metrics[$m].value' "$tmp/parent.json")"
				cv="$(jq -r --arg m "$m" '.metrics[$m].value' "$tmp/change.json")"
				if [ "$pv" = null ] || [ "$cv" = null ]; then
					echo "   $m is not a metric of a --trace $trace run" >&2
					exit 2
				fi
				printf '%s\t%s\t%s\t%s\t%s\n' "$w" "$s" "$m" "$pv" "$cv" >>"$tmp/rows.tsv"
				awk -v m="$m" -v p="$pv" -v c="$cv" 'BEGIN {
					printf "   %-22s parent %-12.6g change %-12.6g ratio %s\n", m, p, c, (p != 0 ? sprintf("%.3f", c / p) : "-")
				}'
			done
			p=$((p + 1))
		done
	done
done

# Medians, parent spread, wins and verdict per (workload, seed, metric), in
# first-seen order.
jq -r '(.end_to_end + .per_layer)[] | [.name, .better, (.bound // "")] | @tsv' "$here/BENCHMARK.json" >"$tmp/better.tsv"
echo
echo "== medians over $pairs pairs (ratio = change/parent; iqr = parent Q3-Q1; wins = pairs the change was the better side)"
awk -F '\t' -f "$here/scripts/pairs-verdict.awk" "$tmp/better.tsv" "$tmp/rows.tsv"
