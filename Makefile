# Tier-1 verification plus the race and benchmark passes, one target each.
# `make check` is what CI should run; `make bench-system` appends to the
# BENCH_system.json performance trajectory.

GO ?= go

.PHONY: all build vet test test-race journal-owners dead-exports mutants bench bench-system bench-pairs smoke faults loc loc-diff check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test order so accidental inter-test state
# dependencies surface under the same pass that catches data races.
test-race:
	$(GO) test -race -shuffle=on ./...

# The journal is written by the layers that are handed one — server,
# cluster, mzserver. The SLO audit, the flight recorder and the fault
# injector report facts to those and must not reach the journal themselves.
journal-owners:
	@if $(GO) list -deps ./internal/slo ./internal/trace ./internal/fault | grep -x mzqos/internal/journal; then \
		echo "internal/slo, internal/trace and internal/fault must not depend on internal/journal" >&2; exit 1; fi

# Nothing under internal/ without a caller or a named reason: every func,
# method, type, const and var declared there, exported or not, and every
# facade func is reached from the program's roots (main packages, the
# facade's Examples, Tests and Benchmarks, its exported types, consts, vars
# and methods, init and var initialisers) or listed, with why it stays, in
# scripts/deadexports/allow.txt. Reachability is by type-checked object, not
# by name: a method is live when called, or when its live type implements an
# interface method live code calls through (the standard library's count as
# called). An interface method nothing calls through is reported too, and
# so is an exported field of a struct under internal/ that no live code
# writes (a composite-literal key or position, a selector in an assignment's
# or increment's left-hand chain, or &x.F; a read never counts, and nor does
# a method storing constants into its own receiver, as a withDefaults does),
# so a Config field only tests and the defaults set shows. An allowlist line that names nothing
# dead fails the run.
dead-exports:
	$(GO) run ./scripts/deadexports

# Every testdata/mutants/*.patch, applied to a `git archive` of REV (default
# HEAD), must build and be caught by the tests its header names; prints
# what killed each. Outside check: a run builds one copy of the tree per
# mutant. RUN=. asks the whole named package instead.
#   make mutants [REV=HEAD~1] [RUN=.]
mutants:
	RUN="$(RUN)" sh scripts/mutants.sh $(REV)

# Every go-test benchmark in the repo, for a look at one host; add
# -cpuprofile per package to see where an op spends its time. The
# host-independent halves (allocation counts, solver work) are tier-1
# tests, and wall-clock claims go through bench-system.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Appends two entries (seed 42, then the held-out 7) to BENCH_system.json:
# benchmark/run.sh -all, then the four end-to-end metrics of every
# workload out of the ignored benchmark/out/results.json, with quartiles,
# sim_digest, GOMAXPROCS and the git revision. About three minutes;
# earlier entries are never rewritten.
bench-system:
	sh scripts/bench-system.sh

# Alternated parent/change pairs of benchmark/run.sh, BASE (any revision,
# run from a `git archive` of it) against the working tree: per pair the
# end-to-end metrics, their change/parent ratio and both sim_digests, then
# per (workload, seed) the medians, the parent's inter-quartile spread,
# wins and a verdict (better / within bound / unresolved / WORSE, from
# BENCHMARK.json's better and bound); fails on a WORSE end-to-end metric.
# What a wall-clock claim cites.
#   make bench-pairs BASE=HEAD~1 [PAIRS=3] [WORKLOADS="cluster-8x4"] [SEEDS="42 7"]
#   TRACE=1 METRICS="history.sample_ns history.dump_ms" for the per-layer rows
bench-pairs:
	PAIRS="$(PAIRS)" WORKLOADS="$(WORKLOADS)" SEEDS="$(SEEDS)" TRACE="$(TRACE)" METRICS="$(METRICS)" sh scripts/bench-pairs.sh $(BASE)

# Runs mzserver with -listen and curls the live telemetry endpoints.
smoke:
	sh scripts/smoke.sh

# Drives mzserver through a scripted disk slowdown with graceful
# degradation on and asserts the degrade/shed/restore lifecycle end to end.
faults:
	sh scripts/faults.sh

# Non-blank, non-comment Go lines per package, non-test beside _test.go:
# the measure of the roadmap's net-negative-lines goal, with code moved
# into test files showing as a move. Informational, never a gate.
loc:
	sh scripts/loc.sh

# The same counts for BASE (any revision, measured from a `git archive`
# of it) beside the working tree, with the per-package deltas:
#   make loc-diff BASE=origin/main
loc-diff:
	sh scripts/loc-diff.sh $(BASE)

check: build vet journal-owners dead-exports test test-race

clean:
	$(GO) clean ./...
