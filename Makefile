# Tier-1 verification plus the race and benchmark passes, one target each.
# `make check` is what CI should run; `make bench` updates the
# BENCH_admission.json performance trajectory.

GO ?= go

.PHONY: all build vet test test-race bench bench-quick smoke faults loc loc-diff check clean

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

# Runs the admission benchmark suite and appends the measurements
# (op, ns/op, allocs/op, git rev, date, solver telemetry) to
# BENCH_admission.json; the schema is documented in BENCH_SCHEMA.md.
bench:
	$(GO) run ./cmd/mzbench -v -out BENCH_admission.json

# CI smoke for the round-path hot loops: runs the ClusterAdmit (with
# migration enabled), ClusterMigrate, SLO-audit, JournalAppend,
# HistorySample, and untraced ServerStep benchmarks, gates each on its
# latency/allocation budget (Step on allocations alone), and validates the existing BENCH_admission.json trajectory against
# BENCH_SCHEMA.md without appending a run.
bench-quick:
	$(GO) run ./cmd/mzbench -quick -v -out BENCH_admission.json

# Runs mzserver with -listen and curls the live telemetry endpoints.
smoke:
	sh scripts/smoke.sh

# Drives mzserver through a scripted disk slowdown with graceful
# degradation on and asserts the degrade/shed/restore lifecycle end to end.
faults:
	sh scripts/faults.sh

# Non-test, non-blank, non-comment Go lines per package: the measure of
# the roadmap's net-negative-lines goal. Informational, never a gate.
loc:
	sh scripts/loc.sh

# The same count for BASE (any revision, measured in a temporary git
# worktree) beside the working tree, with the per-package delta:
#   make loc-diff BASE=origin/main
loc-diff:
	sh scripts/loc-diff.sh $(BASE)

check: build vet test test-race

clean:
	$(GO) clean ./...
