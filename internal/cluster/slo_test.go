package cluster

import (
	"fmt"
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

// sloHealth builds a shard health snapshot for roll-up tests.
func sloHealth(capacity int, budget, fast, slow float64, state slo.State) engine.Health {
	return engine.Health{
		Capacity: capacity,
		SLO: engine.SLOHealth{
			Enabled:      true,
			BudgetLate:   budget,
			BudgetGlitch: budget / 10,
			LateFast:     fast,
			LateSlow:     slow,
			LateState:    int(state),
		},
	}
}

// TestRollupSLOCapacityWeighting: the cluster budget and measured tails
// weight each audited shard by its capacity — a shard serving 3x the
// streams moves the cluster estimate 3x as far.
func TestRollupSLOCapacityWeighting(t *testing.T) {
	shards := []engine.Health{
		sloHealth(10, 0.01, 0.00, 0.00, slo.Inactive),
		sloHealth(30, 0.02, 0.04, 0.02, slo.Firing),
		{Capacity: 50}, // unaudited (a shard with its audit off): no weight
	}
	r := rollupSLO(shards)
	if r.AuditedShards != 2 || r.FiringShards != 1 {
		t.Fatalf("audited=%d firing=%d, want 2/1", r.AuditedShards, r.FiringShards)
	}
	late := r.Targets[0]
	if late.Target != slo.TargetLate {
		t.Fatalf("target[0] = %q", late.Target)
	}
	// Weighted over capacities 10 and 30.
	wantBudget := (10*0.01 + 30*0.02) / 40
	wantFast := (10*0.00 + 30*0.04) / 40
	if !approxEq(late.Budget, wantBudget) || !approxEq(late.MeasuredFast, wantFast) {
		t.Errorf("budget=%v fast=%v, want %v/%v", late.Budget, late.MeasuredFast, wantBudget, wantFast)
	}
	if !approxEq(late.BurnFast, wantFast/wantBudget) {
		t.Errorf("burn fast = %v, want %v", late.BurnFast, wantFast/wantBudget)
	}
	if late.FiringShards != 1 || late.PendingShards != 0 {
		t.Errorf("late firing=%d pending=%d, want 1/0", late.FiringShards, late.PendingShards)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

// TestRollupSLOZeroBudgetCapsBurn: a positive measured tail against a
// zero weighted budget caps at slo.MaxBurn instead of producing +Inf
// (which would break JSON exposition).
func TestRollupSLOZeroBudgetCapsBurn(t *testing.T) {
	r := rollupSLO([]engine.Health{sloHealth(10, 0, 0.5, 0.5, slo.Firing)})
	if r.Targets[0].BurnFast != slo.MaxBurn {
		t.Errorf("burn = %v, want capped at %v", r.Targets[0].BurnFast, slo.MaxBurn)
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
		if row.LateState == "" || row.GlitchState == "" {
			t.Errorf("shard %d states unnamed: %+v", row.Shard, row)
		}
		if !(row.SLO.BudgetLate > 0) {
			t.Errorf("shard %d late budget = %v", row.Shard, row.SLO.BudgetLate)
		}
	}
	if !(st.Targets[0].Budget > 0) {
		t.Errorf("cluster late budget = %v, want > 0 (capacity-weighted)", st.Targets[0].Budget)
	}

	snap := reg.Snapshot()
	if v, ok := gaugeValue(snap, "mzqos_cluster_slo_budget", telemetry.L("target", "late")); !ok || !(v > 0) {
		t.Errorf("cluster budget gauge = %v (%v), want > 0", v, ok)
	}
	if _, ok := gaugeValue(snap, "mzqos_cluster_slo_burn_rate",
		telemetry.L("target", "late"), telemetry.L("window", "fast")); !ok {
		t.Error("cluster burn-rate gauge missing")
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
