package history_test

import (
	"fmt"
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
// down-round sentinel), with a SampleCurrent every 53 rounds as a scrape
// would — and a second Observe per sweep fails here instead of silently
// doubling every log.

const (
	logRounds       = 3 * history.DefaultRounds
	resampleEvery   = 53
	roundTimeSeries = "mzqos_server_round_time_seconds"
)

// faultyServer builds a 4-disk server on reg with the three fault kinds
// spread over logRounds.
func faultyServer(t *testing.T, reg *telemetry.Registry, hist *history.Store, shard int) *server.Server {
	t.Helper()
	cfg := server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    4,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42 + uint64(shard),
		Faults: &fault.Plan{Seed: 5, Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: 0, From: 1000, Until: 1400, Factor: 2},
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: 5000, Until: 5300, Prob: 0.02, Retries: 1},
			{Kind: fault.Failure, Disk: 2, From: 9000, Until: 9100},
		}},
		Registry: reg,
		History:  hist,
		Shard:    shard,
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

func TestRoundTimeLogsKeepInitialSize(t *testing.T) {
	const clips = 64
	t.Run("server", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		hist := history.New(history.Config{Registry: reg})
		srv := faultyServer(t, reg, hist, 0)
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
			if r%resampleEvery == 0 {
				hist.SampleCurrent()
			}
		}
		if tel := srv.Telemetry().Snapshot(); counter(t, tel, "mzqos_server_fault_retries_total") == 0 || counter(t, tel, "mzqos_server_down_rounds_total") == 0 {
			t.Fatal("the run saw no retry or no down round: the fault plan did not reach the histograms")
		}
		checkLogs(t, hist, 4)
	})
	t.Run("cluster", func(t *testing.T) {
		const shards = 3
		reg := telemetry.NewRegistry()
		hist := history.New(history.Config{Registry: reg})
		engines := make([]engine.Engine, shards)
		for i := range engines {
			engines[i] = faultyServer(t, reg, nil, i)
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
			if r%resampleEvery == 0 {
				hist.SampleCurrent()
			}
		}
		checkLogs(t, hist, 4*shards)
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
