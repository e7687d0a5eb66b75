package history_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// A histogram's increment log starts at one entry per retained sample
// because Step observes each disk's round time once per round: at most one
// bucket moves between two samples. That is a property of the servers, so
// it is checked on them — at full load for three fine retentions, through
// a latency fault, a read-error window (retries) and a disk failure (the
// down-round sentinel) — and a second Observe per sweep fails here instead
// of silently doubling every log.

const (
	logRounds       = 3 * history.DefaultRounds
	roundTimeSeries = "mzqos_server_round_time_seconds"
	// allocRuns is how many samples an allocation check averages over.
	allocRuns = 53
)

// newServer builds a 4-disk server on reg: a healthy one, or a faulty one
// with the three fault kinds spread over logRounds.
func newServer(t *testing.T, reg *telemetry.Registry, hist *history.Store, shard int, faulty bool) *server.Server {
	t.Helper()
	cfg := server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    4,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42 + uint64(shard),
		Registry:    reg,
		History:     hist,
		Shard:       shard,
	}
	if faulty {
		cfg.Faults = &fault.Plan{Seed: 5, Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: 0, From: 1000, Until: 1400, Factor: 2},
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: 5000, Until: 5300, Prob: 0.02, Retries: 1},
			{Kind: fault.Failure, Disk: 2, From: 9000, Until: 9100},
		}}
	}
	if hist == nil { // a shard: the coordinator owns the store
		cfg.InstanceLabels = []telemetry.Label{telemetry.L("shard", fmt.Sprint(shard))}
		cfg.Trace.Disabled = true
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// checkLogs fails for every round-time histogram whose log is no longer
// the size it was attached with.
func checkLogs(t *testing.T, hist *history.Store, want int) {
	t.Helper()
	n := 0
	for id, got := range hist.LogLens() {
		if !strings.HasPrefix(id, roundTimeSeries) {
			continue
		}
		n++
		if got != history.DefaultRounds {
			t.Errorf("%s: log holds %d entries, want the initial %d: more than one bucket moved per sample", id, got, history.DefaultRounds)
		}
	}
	if n != want {
		t.Fatalf("%d round-time histograms in the store, want %d", n, want)
	}
}

// loaded is one full-load run of logRounds rounds.
type loaded struct {
	hist *history.Store
	// spare is a gauge of the test's own, registered before the store was
	// built and never set during the run.
	spare *telemetry.Gauge
	srv   *server.Server // nil for a cluster run
}

const (
	clips  = 64
	shards = 3
)

// runServer drives one server at full load for logRounds rounds.
func runServer(t *testing.T, faulty bool) loaded {
	t.Helper()
	reg := telemetry.NewRegistry()
	spare := reg.Gauge("test_spare", "")
	hist := history.New(history.Config{Registry: reg})
	srv := newServer(t, reg, hist, 0, faulty)
	for i := 0; i < clips; i++ {
		if err := srv.AddSyntheticObject(fmt.Sprintf("clip-%d", i), 600+i); err != nil {
			t.Fatal(err)
		}
	}
	for r, next := 0, 0; r < logRounds; r++ {
		for srv.Active() < srv.Capacity() { // a failed disk closes admission
			if _, _, err := srv.Open(fmt.Sprintf("clip-%d", next%clips)); err != nil {
				break
			}
			next++
		}
		srv.Step()
	}
	return loaded{hist: hist, spare: spare, srv: srv}
}

// runCluster drives a 3-shard coordinator at full load for logRounds
// rounds.
func runCluster(t *testing.T, faulty bool) loaded {
	t.Helper()
	reg := telemetry.NewRegistry()
	spare := reg.Gauge("test_spare", "")
	hist := history.New(history.Config{Registry: reg})
	engines := make([]engine.Engine, shards)
	for i := range engines {
		engines[i] = newServer(t, reg, nil, i, faulty)
	}
	coord, err := cluster.New(cluster.Config{Engines: engines, Registry: reg, Replicas: shards, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clips; i++ {
		sizes := make([]float64, 600+i)
		for j := range sizes {
			sizes[j] = workload.PaperSizes().Mean()
		}
		if err := coord.AddObject(fmt.Sprintf("clip-%d", i), sizes); err != nil {
			t.Fatal(err)
		}
	}
	for r, next := 0, 0; r < logRounds; r++ {
		for {
			if _, _, err := coord.Open(fmt.Sprintf("clip-%d", next%clips)); err != nil {
				break // full, or a shard's failed disk closed it
			}
			next++
		}
		coord.Step()
	}
	return loaded{hist: hist, spare: spare}
}

func TestRoundTimeLogsKeepInitialSize(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		run := runServer(t, true)
		if tel := run.srv.Telemetry().Registry().Snapshot(); counter(t, tel, "mzqos_server_fault_retries_total") == 0 || counter(t, tel, "mzqos_server_down_rounds_total") == 0 {
			t.Fatal("the run saw no retry or no down round: the fault plan did not reach the histograms")
		}
		checkLogs(t, run.hist, 4)
	})
	t.Run("cluster", func(t *testing.T) {
		checkLogs(t, runCluster(t, true).hist, 4*shards)
	})
}

// What a healthy server never does — fault, retry, lose a fragment, take a
// disk down, degrade, fail — and what the model solves once
// per configuration — N_max, both bounds, both SLO budgets — never change
// value, so their series hold one value each in the store and no column.
// That too is a property of the servers: one that started setting an
// unchanged gauge to a different bit pattern every round would give back
// the saving and fail nothing else.
var restingNames = []string{
	"mzqos_server_fault_rounds_total",
	"mzqos_server_fault_retries_total",
	"mzqos_server_lost_fragments_total",
	"mzqos_server_down_rounds_total",
	"mzqos_server_fault_evictions_total",
	"mzqos_server_degraded",
	"mzqos_server_degraded_transitions_total",
	"mzqos_server_failed",
	"mzqos_server_nmax",
	"mzqos_server_bound_late",
	"mzqos_server_bound_glitch",
	"mzqos_slo_budget",
	"test_spare",
}

// checkResting fails for every series of restingNames that has a column,
// then holds Sample to its allocation contract: nothing once the run's
// movers have woken, and one series' blocks — its open chunk, its ring of
// sealed chunks and their marks, and 24 B per coarse block the ring holds
// at that round, each as the allocator sizes it — in the sample a resting
// gauge first moves in.
func checkResting(t *testing.T, run loaded, perName int) {
	t.Helper()
	atRest := run.hist.AtRest()
	seen := make(map[string]int)
	for id, resting := range atRest {
		name, _, _ := strings.Cut(id, "{")
		if !slices.Contains(restingNames, name) {
			continue
		}
		seen[name]++
		if !resting {
			t.Errorf("%s moved on a healthy run: its series holds a column", id)
		}
	}
	for _, name := range restingNames {
		if seen[name] == 0 {
			t.Errorf("no series named %s in the store", name)
		}
	}
	if n := seen["mzqos_server_nmax"]; n != perName {
		t.Fatalf("%d mzqos_server_nmax series in the store, want %d", n, perName)
	}

	round := run.hist.LastRound()
	sample := func() {
		round++
		run.hist.Sample(round)
	}
	if allocs := testing.AllocsPerRun(2*allocRuns, sample); allocs != 0 {
		t.Errorf("Sample allocates %v per run after %d rounds, want 0: a series is still waking", allocs, logRounds)
	}
	run.spare.Set(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sample()
	runtime.ReadMemStats(&after)
	var pair uint64
	for _, n := range run.hist.WakeBlocks("test_spare") {
		pair += allocSize(n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got < pair || got > pair+512 {
		t.Errorf("the sample a resting gauge first moved in allocated %d B, want one series' blocks (%d B) and their group", got, pair)
	}
	if run.hist.AtRest()["test_spare"] {
		t.Error("test_spare moved and is still at rest")
	}
	if allocs := testing.AllocsPerRun(allocRuns, sample); allocs != 0 {
		t.Errorf("Sample allocates %v per run after the wake, want 0", allocs)
	}
}

// allocSink keeps allocSize's allocation from being optimized away.
var allocSink []byte

// allocSize returns the bytes the allocator takes for one object of n
// bytes: n rounded up to its size class.
func allocSize(n int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocSink = make([]byte, n)
	runtime.ReadMemStats(&after)
	allocSink = nil
	return after.TotalAlloc - before.TotalAlloc
}

func TestHealthySeriesStayAtRest(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		checkResting(t, runServer(t, false), 1)
	})
	t.Run("cluster", func(t *testing.T) {
		checkResting(t, runCluster(t, false), shards)
	})
}

// counter sums a counter name over its label sets.
func counter(t *testing.T, snap telemetry.Snapshot, name string) (total int64) {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}
