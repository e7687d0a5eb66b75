package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mzqos/internal/engine"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
)

// audited turns a fleet's SLO audits on and puts its shards on one shared
// registry (shard instance labels keep the series distinct), the way
// cluster mode runs.
func audited(reg *telemetry.Registry) func(int, *server.Config) {
	return func(i int, c *server.Config) {
		c.SLO.Disabled = false
		c.Registry = reg
		c.InstanceLabels = []telemetry.Label{telemetry.L("shard", fmt.Sprint(i))}
	}
}

// sloHealth builds a shard heartbeat for roll-up tests: late-target fast
// and slow counts under budget, the glitch target at a tenth of it.
func sloHealth(budget float64, fast, slow slo.Count, state slo.State) engine.Health {
	return engine.Health{SLO: slo.Health{
		Enabled:    true,
		FastWindow: slo.DefaultFastWindow,
		SlowWindow: slo.DefaultSlowWindow,
		Budgets:    [2]float64{budget, budget / 10},
		Windows:    [2][2]slo.Count{{fast, slow}},
		States:     [2]slo.State{state},
	}}
}

// TestRollupSLOPoolsCounts: the cluster tests the audited shards' summed
// counts against the largest shard budget, whatever the shards'
// capacities, and counts the shards in each alert state.
func TestRollupSLOPoolsCounts(t *testing.T) {
	shards := []engine.Health{
		sloHealth(0.01, slo.Count{Violations: 0, Population: 128}, slo.Count{Violations: 1, Population: 1024}, slo.Inactive),
		sloHealth(0.02, slo.Count{Violations: 9, Population: 256}, slo.Count{Violations: 40, Population: 2048}, slo.Firing),
		{Capacity: 50, SLO: slo.Health{Windows: [2][2]slo.Count{{{Violations: 99, Population: 100}}}}}, // audit off: no counts
	}
	shards[0].Capacity, shards[1].Capacity = 10, 30
	var a sloAudit
	r := a.rollup(shards, 1, true)
	if r.AuditedShards != 2 || r.FiringShards != 1 {
		t.Fatalf("audited=%d firing=%d, want 2/1", r.AuditedShards, r.FiringShards)
	}
	if r.budgets != [2]float64{0.02, 0.002} {
		t.Errorf("budgets = %v, want the largest shard's, [0.02 0.002]", r.budgets)
	}
	if want := [2]slo.Count{{Violations: 9, Population: 384}, {Violations: 41, Population: 3072}}; r.windows[0] != want {
		t.Errorf("late windows = %+v, want the shards' sums %+v", r.windows[0], want)
	}
	if r.firing != [2]int{1, 0} || r.pending != [2]int{} {
		t.Errorf("firing=%v pending=%v, want [1 0] and [0 0]", r.firing, r.pending)
	}
	if r.cfg.FastWindow != slo.DefaultFastWindow || r.cfg.SlowWindow != slo.DefaultSlowWindow {
		t.Errorf("window spans %+v, want the shards'", r.cfg)
	}
	// 9 of 384 and 41 of 3072 at 0.02 reject in neither window; a third
	// shard's 20 of 128 and 80 of 1024 make both reject.
	if st := r.alerts[0].Status(slo.TargetLate, r.budgets[0], r.windows[0][0], r.windows[0][1], r.cfg); st.State != slo.Inactive {
		t.Errorf("cluster late alert %v on a pool within budget, want inactive", st.State)
	}
	shards = append(shards, sloHealth(0.01, slo.Count{Violations: 20, Population: 128}, slo.Count{Violations: 80, Population: 1024}, slo.Firing))
	r = a.rollup(shards, 2, true)
	if st := r.alerts[0].Status(slo.TargetLate, r.budgets[0], r.windows[0][0], r.windows[0][1], r.cfg); st.State != slo.Firing || st.SinceRound != 2 {
		t.Errorf("cluster late alert %v since %d on a pool over budget, want firing since round 2: %+v", st.State, st.SinceRound, st.Windows)
	}
	// A refresh that does not step keeps the cluster alert where it is.
	if r = a.rollup(shards[:2], 3, false); r.alerts[0] != a[0] {
		t.Error("a refresh without a step moved the cluster alert")
	}
	if allocs := testing.AllocsPerRun(100, func() { r = a.rollup(shards, 4, true) }); allocs != 0 {
		t.Errorf("a roll-up step allocates %v, want 0", allocs)
	}
}

// Budgets of the cluster's Bernoulli model, as in internal/slo's: b_late(26)
// on the Quantum Viking at a one-second round, and Figure 1's simulated
// late-round rate at N = 29, 3.8 times that budget.
const (
	bLate26  = 0.00361
	qFigure1 = 0.0138
)

// alertRun is what one late-target alert did in a Bernoulli run.
type alertRun struct {
	fired     int64 // transitions to Firing
	firstFire int   // first round that ended in Firing, -1 if none
}

// clusterModel drives len(q) default-configured 4-disk shard auditors for
// rounds rounds, each disk-round of shard i late independently with
// probability q[i] against the budget bLate26, and steps the cluster's
// roll-up on their heartbeats after every round. It reports the cluster's
// late alert and shard 0's.
func clusterModel(t *testing.T, q []float64, rounds int, seed uint64) (cluster, shard0 alertRun) {
	t.Helper()
	auds := make([]*slo.Auditor, len(q))
	for i := range auds {
		aud, err := slo.New(slo.Config{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		aud.SetBudgets(bLate26, bLate26)
		auds[i] = aud
	}
	rng := rand.New(rand.NewPCG(seed, 0x510))
	healths := make([]engine.Health, len(q))
	var a sloAudit
	cluster, shard0 = alertRun{firstFire: -1}, alertRun{firstFire: -1}
	var r clusterSLORollup
	for round := 0; round < rounds; round++ {
		for i, aud := range auds {
			for d := 0; d < 4; d++ {
				aud.ObserveDisk(d, rng.Float64() < q[i], 0, 0)
			}
			ev := aud.EndRound()
			if i == 0 && ev.Late.State == slo.Firing && shard0.firstFire < 0 {
				shard0.firstFire = round
			}
			healths[i].SLO = aud.Health()
		}
		prev := a[0]
		r = a.rollup(healths, round, true)
		if cluster.firstFire < 0 && a[0] != prev {
			if st := a[0].Status(slo.TargetLate, r.budgets[0], r.windows[0][0], r.windows[0][1], r.cfg); st.State == slo.Firing {
				cluster.firstFire = round
			}
		}
	}
	cluster.fired = a[0].Status(slo.TargetLate, r.budgets[0], r.windows[0][0], r.windows[0][1], r.cfg).FiredTotal
	shard0.fired = auds[0].Status().Targets[0].FiredTotal
	return cluster, shard0
}

// TestRollupSLOBernoulliModel runs the cluster's test on 8 shards of 4
// disks whose disk-rounds are late as often as the budget allows (every
// cluster firing is a false alarm), and with one shard late 3.8 times as
// often among seven at the budget. Pooling dilutes the bad shard: its own
// alert fires once and first, the cluster's hundreds of rounds later, and
// the cluster's incident is not one firing as the shard's is, since the
// pooled rate, 1.35 times the budget, hovers near its critical count. The shard's
// alert is the fast detector; the cluster's says the fleet as a whole
// broke the promise.
func TestRollupSLOBernoulliModel(t *testing.T) {
	const rounds = 200_000
	atBudget := make([]float64, 8)
	for i := range atBudget {
		atBudget[i] = bLate26
	}
	oneBad := append([]float64{qFigure1}, atBudget[1:]...)
	for _, tc := range []struct {
		name             string
		q                []float64
		fired, firstFire int // the cluster's, at this seed
	}{
		{"all at the budget", atBudget, 2, 111819},
		{"one shard at 3.8x", oneBad, 12, 1231},
	} {
		cl, sh := clusterModel(t, tc.q, rounds, 42)
		t.Logf("%s: cluster fired %d times, first at round %d; shard 0 fired %d times, first at round %d",
			tc.name, cl.fired, cl.firstFire, sh.fired, sh.firstFire)
		if cl.fired != int64(tc.fired) || cl.firstFire != tc.firstFire {
			t.Errorf("%s: the cluster fired %d times in %d rounds, first at round %d; want %d, first at %d",
				tc.name, cl.fired, rounds, cl.firstFire, tc.fired, tc.firstFire)
		}
		if tc.q[0] == qFigure1 && (sh.firstFire < 0 || sh.firstFire >= cl.firstFire || sh.fired > 2) {
			t.Errorf("%s: the bad shard fired %d times, first at round %d: want one incident, before the cluster's first at %d",
				tc.name, sh.fired, sh.firstFire, cl.firstFire)
		}
	}
}

// TestClusterSLOPoolsShardCounts: at every round the cluster's pooled
// window counts are the sums of the counts each shard's own /slo reports,
// target by target and window by window, through a slowdown that makes
// one shard's alert fire.
func TestClusterSLOPoolsShardCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	set := audited(reg)
	engines := fleet(t, 3, 2, func(i int, c *server.Config) {
		set(i, c)
		onShard(1, slowdown(3, 20, 120))(i, c)
	})
	c := newCoordinator(t, Config{Engines: engines, Registry: reg})
	sizes := make([]float64, 400)
	for i := range sizes {
		sizes[i] = 200e3
	}
	for i := range engines {
		object := fmt.Sprintf("clip-%d", i)
		if err := c.AddObject(object, sizes); err != nil {
			t.Fatal(err)
		}
		openN(t, c, object, 2*20)
	}
	fired := false
	for round := 0; round < 200; round++ {
		c.Step()
		cs := c.SLOStatus()
		for i, tgt := range cs.Targets {
			for w, win := range tgt.Windows {
				var sum slo.Count
				for _, e := range engines {
					sum.Add(e.(*server.Server).SLOStatus().Targets[i].Windows[w].Count)
				}
				if win.Count != sum {
					t.Fatalf("round %d %s %s: the cluster pools %+v, the shards report %+v",
						round, tgt.Target, win.Window, win.Count, sum)
				}
			}
		}
		fired = fired || cs.FiringShards > 0
	}
	if !fired {
		t.Error("setup: no shard fired under the slowdown")
	}
}

// TestClusterSLOStatusOverServerShards: the heartbeat piggybacks each
// server shard's audit snapshot, and the cluster /slo payload rolls them
// up with named alert states; the shared registry carries the
// mzqos_cluster_slo_* and view-age series.
func TestClusterSLOStatusOverServerShards(t *testing.T) {
	reg := telemetry.NewRegistry()
	engines := fleet(t, 2, 2, audited(reg))
	c := newCoordinator(t, Config{Engines: engines, Registry: reg})
	steps(c, 10)

	st := c.SLOStatus()
	if st.AuditedShards != 2 || st.FiringShards != 0 {
		t.Fatalf("audited=%d firing=%d, want 2/0", st.AuditedShards, st.FiringShards)
	}
	if len(st.Targets) != 2 || len(st.Shards) != 2 {
		t.Fatalf("targets=%d shards=%d, want 2/2", len(st.Targets), len(st.Shards))
	}
	for _, row := range st.Shards {
		if !row.SLO.Enabled {
			t.Errorf("shard %d audit not enabled in view", row.Shard)
		}
		if !(row.SLO.Budgets[0] > 0) {
			t.Errorf("shard %d late budget = %v", row.Shard, row.SLO.Budgets[0])
		}
	}
	if !(st.Targets[0].Budget > 0) || st.Targets[0].State != slo.Inactive || len(st.Targets[0].Windows) != 2 {
		t.Errorf("cluster late row = %+v, want a budget > 0, two windows and an inactive alert", st.Targets[0])
	}

	snap := reg.Snapshot()
	if v, ok := gaugeValue(snap, "mzqos_cluster_slo_budget", telemetry.L("target", "late")); !ok || !(v > 0) {
		t.Errorf("cluster budget gauge = %v (%v), want > 0", v, ok)
	}
	if _, ok := gaugeValue(snap, "mzqos_cluster_slo_measured",
		telemetry.L("target", "late"), telemetry.L("window", "fast")); !ok {
		t.Error("cluster measured-rate gauge missing")
	}
	if v, ok := gaugeValue(snap, "mzqos_cluster_slo_firing_shards"); !ok || v != 0 {
		t.Errorf("firing-shards gauge = %v (%v), want 0", v, ok)
	}
	// The per-shard series carry the shard instance label.
	if v, ok := gaugeValue(snap, "mzqos_slo_budget",
		telemetry.L("shard", "0"), telemetry.L("target", "late")); !ok || !(v > 0) {
		t.Errorf("shard-labeled slo budget = %v (%v), want > 0", v, ok)
	}
}

// untightEngine hides its engine's BoundTightness: a shard that tracks no
// empirical tails, as a decorator that forwards only engine.Engine is.
type untightEngine struct{ engine.Engine }

// TestClusterTightnessReportMixedFleet: TightnessReport audits every
// shard whose engine can report bound tightness and marks the rest
// unaudited, so the exit table and /report work with -shards whatever
// wraps a shard's engine.
func TestClusterTightnessReportMixedFleet(t *testing.T) {
	reg := telemetry.NewRegistry()
	engines := fleet(t, 3, 2, audited(reg))
	engines[2] = untightEngine{engines[2]}
	c := newCoordinator(t, Config{Engines: engines, Registry: reg})

	// Load the server shards and run sweeps so the tightness report has
	// empirical mass.
	for i := 0; i < 20; i++ {
		if err := c.AddObject(fmt.Sprintf("clip-%d", i), []float64{200e3, 200e3, 200e3}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Open(fmt.Sprintf("clip-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	steps(c, 5)

	rep := c.TightnessReport()
	if len(rep.Shards) != 3 || rep.AuditedShards != 2 {
		t.Fatalf("shards=%d audited=%d, want 3/2", len(rep.Shards), rep.AuditedShards)
	}
	if !rep.Shards[0].Audited || !rep.Shards[1].Audited || rep.Shards[2].Audited {
		t.Errorf("audited flags = %v/%v/%v, want true/true/false",
			rep.Shards[0].Audited, rep.Shards[1].Audited, rep.Shards[2].Audited)
	}
	if !rep.WithinBounds {
		t.Errorf("healthy run outside bounds: %+v", rep.Shards)
	}
	for _, row := range rep.Shards[:2] {
		if len(row.Report.Disks) != 2 {
			t.Errorf("shard %d report has %d disks, want 2", row.Shard, len(row.Report.Disks))
		}
	}
}

// gaugeValue reads the gauge series name with exactly labels out of a
// snapshot.
func gaugeValue(s telemetry.Snapshot, name string, labels ...telemetry.Label) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && slices.Equal(g.Labels, labels) {
			return g.Value, true
		}
	}
	return 0, false
}
