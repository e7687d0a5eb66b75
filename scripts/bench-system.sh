#!/bin/sh
# Appends this tree's system-benchmark medians to BENCH_system.json, the
# repo's one performance trajectory: for seed 42 and then the held-out 7,
# runs benchmark/run.sh -all at BENCHMARK.json's run_seconds (the length
# the benchmark driver uses, so sim_digest lines up with its runs) and
# keeps, of benchmark/out/results.json, the header and per workload
# GOMAXPROCS, sim_digest and value/q1/q3 of BENCHMARK.json's end_to_end
# metrics. Entries are only ever added at the end; a failed run or check
# (run.sh exits non-zero) appends nothing.
set -eu
cd "$(dirname "$0")/.."
out=BENCH_system.json
rev="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain -- . ":!$out")" ]; then
	rev="$rev-dirty"
fi
for seed in 42 7; do
	bash benchmark/run.sh -all -seed "$seed" --seconds "$(jq .run_seconds BENCHMARK.json)"
	jq --arg rev "$rev" --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--slurpfile res benchmark/out/results.json --slurpfile bm BENCHMARK.json '
		($bm[0].end_to_end | map(.name)) as $names
		| . + [$res[0] | {
			git_rev: $rev, date: $date, go_version, num_cpu, seed, rounds_factor,
			workloads: [.workloads[] | {workload, gomaxprocs, sim_digest}
				+ (.metrics | with_entries(select(.key | IN($names[])) | .value |= {value, q1, q3}))]
		}]' "$out" >benchmark/out/"$out"
	mv benchmark/out/"$out" "$out"
done
