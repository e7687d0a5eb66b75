package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// runFaultedCluster drives a seeded 8-shard journaled coordinator of real
// servers — shard 0 slows down, degrades and sheds, shard 3 fails outright,
// migration on — under Poisson arrivals, checking tickets == Σ active
// after every round, and returns every round's report.
func runFaultedCluster(t *testing.T) []RoundReport {
	t.Helper()
	const (
		shards = 8
		clips  = 24
		rounds = 160
	)
	reg := telemetry.NewRegistry()
	jnl := journal.New(journal.Config{Registry: reg})
	led := journal.NewLedger(journal.LedgerConfig{})
	plans := map[int]*fault.Plan{
		0: {Seed: 3, Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 20, Until: 70, Factor: 3},
			{Kind: fault.ReadError, Disk: 0, From: 80, Until: 120, Prob: 0.05, Retries: 1},
		}},
		3: {Seed: 4, Faults: []fault.Fault{
			{Kind: fault.Failure, Disk: fault.AllDisks, From: 50, Until: 100},
		}},
	}
	engines := make([]engine.Engine, shards)
	for i := range engines {
		srv, err := server.New(server.Config{
			Disk:           disk.QuantumViking21(),
			NumDisks:       2,
			RoundLength:    1,
			Sizes:          workload.PaperSizes(),
			Guarantee:      model.Guarantee{Threshold: 0.01},
			Seed:           42 + uint64(i)*0x9e3779b9,
			Faults:         plans[i],
			Degrade:        server.DegradeConfig{Enabled: true, After: 4},
			Registry:       reg,
			InstanceLabels: []telemetry.Label{telemetry.L("shard", fmt.Sprint(i))},
			Journal:        jnl,
			Ledger:         led,
			Shard:          i,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = srv
	}
	c := newCoordinator(t, Config{
		Engines:  engines,
		Registry: reg,
		Replicas: 3,
		Migrate:  true,
		Journal:  jnl,
		Ledger:   led,
	})
	rng := dist.NewRand(7, 7^0xfeed)
	for i := 0; i < clips; i++ {
		sizes := make([]float64, 20+rng.IntN(40))
		for j := range sizes {
			sizes[j] = workload.PaperSizes().Sample(rng)
		}
		if err := c.AddObject(fmt.Sprintf("clip-%02d", i), sizes); err != nil {
			t.Fatal(err)
		}
	}
	reports := make([]RoundReport, 0, rounds)
	for r := 0; r < rounds; r++ {
		for k := rng.IntN(12); k > 0; k-- {
			_, _, _ = c.Open(fmt.Sprintf("clip-%02d", rng.IntN(clips)))
		}
		reports = append(reports, c.Step())
		checkTicketInvariant(t, c, fmt.Sprintf("round %d", r))
	}
	if ms := c.MigrationStats(); ms.Succeeded == 0 {
		t.Fatalf("no stream migrated (%+v): the run must exercise migrateRound", ms)
	}
	return reports
}

// TestStepIdenticalAcrossProcs: Step's fan-out width is min(GOMAXPROCS,
// shards), and what a round does must not depend on it — the same seeded
// faulted run yields the same reports whether the caller steps every
// shard itself (1), shares them with one worker (2) or each shard has its
// own (8).
func TestStepIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []RoundReport
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runFaultedCluster(t)
		if want == nil {
			want = got
			continue
		}
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Fatalf("GOMAXPROCS %d: round %d report differs from GOMAXPROCS 1:\n got %+v\nwant %+v", procs, r, got[r], want[r])
			}
		}
	}
}

// TestStepAllocsOnlyReportSlice: at one P the coordinator's round spawns
// nothing and shares nothing, so over sim shards it allocates exactly what
// its shards' own Steps do plus the report's Shards slice: 9 objects a
// round over these 8 shards, where the goroutine-per-shard fan-out this
// replaced measured 27 (the escaping report and WaitGroup, and a closure
// and a goroutine start per shard).
func TestStepAllocsOnlyReportSlice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, perShard = 8, 8
	sizes := make([]float64, 1<<16) // long enough that no stream completes
	for i := range sizes {
		sizes[i] = 1
	}

	// The shards' own cost: the same fleet, the same streams, stepped bare.
	bare := simFleet(t, shards, 4, 64)
	for i, e := range bare {
		if err := e.AddObject("vod", sizes); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < perShard; k++ {
			if _, _, err := e.Open("vod"); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
	}
	shardAllocs := testing.AllocsPerRun(100, func() {
		for _, e := range bare {
			e.Step()
		}
	})

	// Heartbeats off the measured rounds: a view refresh allocates its
	// snapshot (2 objects) on its own cadence, whatever the fan-out does.
	c := newCoordinator(t, Config{
		Engines: simFleet(t, shards, 4, 64), Route: RouteRoundRobin, Replicas: shards,
		Migrate: true, HeartbeatEvery: 1 << 30,
	})
	if err := c.AddObject("vod", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "vod", shards*perShard)
	for i, e := range bare {
		if got, want := c.shards[i].eng.Active(), e.Active(); got != want {
			t.Fatalf("shard %d: coordinator placed %d streams, bare fleet holds %d", i, got, want)
		}
	}
	stepAllocs := testing.AllocsPerRun(100, func() { c.Step() })
	if stepAllocs != shardAllocs+1 {
		t.Fatalf("Coordinator.Step allocates %v per round over shards that allocate %v: want exactly one more, the Shards slice",
			stepAllocs, shardAllocs)
	}
}
