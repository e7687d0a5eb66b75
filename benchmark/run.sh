#!/usr/bin/env bash
# The one command of the system benchmark: builds the driver once and runs
# it from the repository root.
#
#   benchmark/run.sh                  the full set: five untraced workloads,
#                                     then the traced runs and the Step cost
#                                     ladder; results.json and span files land
#                                     in benchmark/out/, the table on stdout;
#                                     exits non-zero on any failed check
#   benchmark/run.sh -all [-seed N] [-rounds-factor F]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one run, as BENCHMARK.json's driver
#                                     calls it; last stdout line is the result
#   benchmark/run.sh -compare a.json b.json
set -eu
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
# The benchmark may write only inside its checkout, the build cache included.
export GOCACHE="$PWD/benchmark/out/gocache"
go build -o benchmark/out/mzsysbench ./benchmark
if [ "$#" -eq 0 ]; then
	set -- -all
fi
# The driver has one scale, -rounds-factor; the round counts are sized for
# 10 s at factor 1, so --seconds S (whole seconds) is factor S/10.
args=()
while [ "$#" -gt 0 ]; do
	case "$1" in
	--seconds | -seconds)
		case "${2:-}" in
		'' | *[!0-9]*)
			echo "run.sh: --seconds takes a whole number" >&2
			exit 2
			;;
		esac
		args+=(-rounds-factor "$((10#$2 / 10)).$((10#$2 % 10))")
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec benchmark/out/mzsysbench "${args[@]}"
