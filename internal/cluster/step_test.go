package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// runFaultedCluster drives a seeded 8-shard journaled coordinator of real
// servers — shard 0 slows down, degrades and sheds, shard 3 fails outright,
// migration on — under Poisson arrivals, checking every shard's open
// streams against its view capacity after every round, and returns every
// round's report.
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
	engines := fleet(t, shards, 2, func(i int, c *server.Config) {
		c.Seed = 42 + uint64(i)*0x9e3779b9
		c.Faults = plans[i]
		c.Degrade.After = 4
		c.Trace.Disabled, c.SLO.Disabled = false, false
		c.Registry = reg
		c.InstanceLabels = []telemetry.Label{telemetry.L("shard", fmt.Sprint(i))}
		c.Journal, c.Ledger, c.Shard = jnl, led, i
	})
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
		checkCapacityInvariant(t, c, fmt.Sprintf("round %d", r))
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

// TestViewFreshAfterEveryStep: the coordinator is every shard's single
// writer and refreshes its admission view at the end of every Step, so the
// health it admits on is never behind the engines. A 4-shard fleet, one
// shard degrading and one failing, must show after every round exactly
// the health each engine reports.
func TestViewFreshAfterEveryStep(t *testing.T) {
	plans := map[int]*fault.Plan{1: slowdown(3, 10, 40), 2: outage(20, 50)}
	engines := fleet(t, 4, 2, func(i int, c *server.Config) { c.Faults = plans[i] })
	c := newCoordinator(t, Config{Engines: engines, Replicas: 4, Migrate: true})
	if err := c.AddObject("clip", unitClip(60)); err != nil {
		t.Fatal(err)
	}
	degraded, failed := 0, 0
	for r := 0; r < 80; r++ {
		for k := 0; k < 6; k++ {
			_, _, _ = c.Open("clip")
		}
		c.Step()
		for i, row := range c.Status().Shards {
			if h := engines[i].Health(); row.Health != h {
				t.Fatalf("round %d: shard %d's view row %+v, its engine reports %+v", r, i, row.Health, h)
			}
			if row.Health.Degraded {
				degraded++
			}
			if row.Health.Failed {
				failed++
			}
		}
	}
	if degraded == 0 || failed == 0 {
		t.Fatalf("the plans never showed in the view: %d degraded, %d failed shard-rounds", degraded, failed)
	}
}

// TestStepAllocsOnlyReportSlice: at one P the coordinator's round spawns
// nothing and shares nothing, so it allocates exactly what its shards' own
// Steps do plus three objects: the report's Shards slice, and the view the
// round publishes with its health rows. That is three objects a round over
// these 8 bare servers, whose Steps allocate nothing per round, where the
// goroutine-per-shard fan-out this replaced measured 27 beside the view
// (the escaping report and WaitGroup, and a closure and a goroutine start
// per shard). Both fleets are measured after a warm-up of one round per
// disk, in which each disk grows its sweep scratch to its largest offset
// class, and over enough rounds that a server's report-row block (once per
// 32 rounds) stays well below one object a round.
func TestStepAllocsOnlyReportSlice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, perShard, disks, runs = 8, 8, 4, 1000
	sizes := unitClip(2 * runs) // long enough that no stream completes

	// The shards' own cost: the same fleet, the same streams, stepped bare.
	bare := fleet(t, shards, disks, nil)
	for i, e := range bare {
		if err := e.(*server.Server).AddObject("vod", sizes); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < perShard; k++ {
			if _, _, err := e.Open("vod"); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
	}
	stepBare := func() {
		for _, e := range bare {
			e.Step()
		}
	}
	for r := 0; r < disks; r++ {
		stepBare()
	}
	shardAllocs := testing.AllocsPerRun(runs, stepBare)

	c := newCoordinator(t, Config{
		Engines: fleet(t, shards, disks, nil), Route: RouteRoundRobin, Replicas: shards, Migrate: true,
	})
	if err := c.AddObject("vod", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "vod", shards*perShard)
	for i, e := range bare {
		if got, want := activeOn(c.shards[i].eng), activeOn(e); got != want {
			t.Fatalf("shard %d: coordinator placed %d streams, bare fleet holds %d", i, got, want)
		}
	}
	steps(c, disks)
	stepAllocs := testing.AllocsPerRun(runs, func() { c.Step() })
	if stepAllocs != shardAllocs+3 {
		t.Fatalf("Coordinator.Step allocates %v per round over shards that allocate %v: want exactly three more, the Shards slice, the view and its rows",
			stepAllocs, shardAllocs)
	}
}
