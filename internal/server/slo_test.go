package server

import (
	"fmt"
	"strings"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// sloServer builds a paper-parameter server with the given fault plan and
// audit config, on a journal of its own, loaded to capacity with
// independent streams.
func sloServer(t testing.TB, disks int, plan *fault.Plan, cfg slo.Config) *Server {
	t.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults:      plan,
		SLO:         cfg,
		Journal:     journal.New(journal.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity(); i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 600); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	return s
}

// targetStatus pulls one target's status row out of the audit snapshot.
func targetStatus(t *testing.T, st slo.Status, name string) slo.TargetStatus {
	t.Helper()
	for _, ts := range st.Targets {
		if ts.Target == name {
			return ts
		}
	}
	t.Fatalf("no target %q in status %+v", name, st)
	return slo.TargetStatus{}
}

// TestSLOAlertLifecycleUnderFault is the audit's acceptance scenario: a
// zone-degrading fault plan drives the measured late tail past the
// analytic bound, the b_late alert reaches Firing within the fast
// window, firing freezes the flight recorder and journals the incident
// with the binding admission constraint, and after the fault clears the
// alert resolves and ages back to Inactive.
func TestSLOAlertLifecycleUnderFault(t *testing.T) {
	const faultFrom, faultUntil = 50, 90
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 0, From: faultFrom, Until: faultUntil, Factor: 3},
	}}
	cfg := slo.Config{FastWindow: 16, SlowWindow: 64, ResolvedFor: 8}
	s := sloServer(t, 1, plan, cfg)

	triggersBefore := s.Trace().Stats().Triggers
	firedAt := -1
	for r := 0; r < 250; r++ {
		s.Step()
		ts := targetStatus(t, s.SLOStatus(), slo.TargetLate)
		if ts.State == slo.Firing && firedAt < 0 {
			firedAt = r
			// The recorder froze on the alert (an earlier glitch freeze
			// may hold the latch; the trigger count still moves).
			st := s.Trace().Stats()
			if !st.Frozen || st.Triggers <= triggersBefore {
				t.Errorf("round %d: recorder not frozen on firing (stats %+v)", r, st)
			}
		}
	}
	if firedAt < 0 {
		t.Fatal("late alert never fired under a 3x latency fault")
	}
	// Firing must happen within the fast window of the fault starting.
	if firedAt < faultFrom || firedAt > faultFrom+cfg.FastWindow {
		t.Errorf("fired at round %d, want within (%d, %d]", firedAt, faultFrom, faultFrom+cfg.FastWindow)
	}

	// The journal holds the incident: the late alert's arc ends firing,
	// resolved, and the firing event is the recalibration hint, naming
	// the violated quantity and the binding admission constraint.
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindSLOPending, journal.KindSLOFiring, journal.KindSLOResolved}
	var arc []string
	for _, e := range s.jnl.Events(f) {
		if e.Target != slo.TargetLate {
			continue
		}
		arc = append(arc, slo.State(e.To).String())
		if e.Kind != journal.KindSLOFiring {
			continue
		}
		var k, n, crit int64
		if _, err := fmt.Sscanf(e.Detail, "fast %d/%d critical %d", &k, &n, &crit); err != nil {
			t.Fatalf("firing detail %q: %v", e.Detail, err)
		}
		if k < crit || crit < 1 || e.Value != float64(k)/float64(n) || e.Value <= e.Budget || e.Budget <= 0 {
			t.Errorf("firing numbers inconsistent: %+v", e)
		}
		if e.Round != firedAt || !strings.HasSuffix(e.Detail, "; binding k=27 b_late disk=0") {
			t.Errorf("firing at round %d with detail %q, want round %d and binding k=27 b_late disk=0", e.Round, e.Detail, firedAt)
		}
	}
	if joined := strings.Join(arc, ","); !strings.HasSuffix(joined, "firing,resolved") {
		t.Errorf("late incident arc = %q, want suffix firing,resolved", joined)
	}

	// After 160 clean rounds the alert has resolved and aged to Inactive.
	final := targetStatus(t, s.SLOStatus(), slo.TargetLate)
	if final.State != slo.Inactive {
		t.Errorf("final late state = %v, want inactive", final.State)
	}
	if final.FiredTotal != 1 || final.ResolvedTotal != 1 {
		t.Errorf("fired=%d resolved=%d, want 1/1", final.FiredTotal, final.ResolvedTotal)
	}

	// The metric surface agrees.
	snap := s.Telemetry().Registry().Snapshot()
	if v, ok := counterValue(snap, "mzqos_slo_alerts_fired_total", telemetry.L("target", "late")); !ok || v != 1 {
		t.Errorf("fired counter = %v (%v), want 1", v, ok)
	}
	if v, ok := counterValue(snap, "mzqos_slo_alerts_resolved_total", telemetry.L("target", "late")); !ok || v != 1 {
		t.Errorf("resolved counter = %v (%v), want 1", v, ok)
	}
	if v, ok := gaugeValue(snap, "mzqos_slo_alert_state", telemetry.L("target", "late")); !ok || v != float64(slo.Inactive) {
		t.Errorf("state gauge = %v (%v), want inactive (%d)", v, ok, slo.Inactive)
	}
}

// TestSLONoFalseAlertsAtFullLoad is the false-positive guard: at full
// admitted load with no faults, the default audit must not fire over 500+
// rounds — the loose Chernoff budgets leave ample headroom for the
// empirical tails the admitted load actually produces.
func TestSLONoFalseAlertsAtFullLoad(t *testing.T) {
	s := sloServer(t, 2, nil, slo.Config{})
	for r := 0; r < 520; r++ {
		s.Step()
	}
	st := s.SLOStatus()
	if !st.Enabled || st.Round != 520 {
		t.Fatalf("audit enabled=%v round=%d, want true/520", st.Enabled, st.Round)
	}
	for _, ts := range st.Targets {
		if ts.FiredTotal != 0 {
			t.Errorf("target %s fired %d times over 520 clean rounds", ts.Target, ts.FiredTotal)
		}
		if ts.State == slo.Firing {
			t.Errorf("target %s is firing at full clean load", ts.Target)
		}
		if !(ts.Budget > 0) {
			t.Errorf("target %s budget = %v, want > 0", ts.Target, ts.Budget)
		}
	}
}

// TestSLOHealthSnapshot: the engine Health contract carries the audit's
// budgets, window counts and states for heartbeat piggybacking, the same
// the shard's own /slo reports.
func TestSLOHealthSnapshot(t *testing.T) {
	s := sloServer(t, 2, nil, slo.Config{})
	for r := 0; r < 30; r++ {
		s.Step()
	}
	h := s.Health()
	if !h.SLO.Enabled {
		t.Fatal("health SLO snapshot not enabled")
	}
	if !(h.SLO.Budgets[0] > 0) || !(h.SLO.Budgets[1] > 0) {
		t.Errorf("health budgets = %v, want > 0", h.SLO.Budgets)
	}
	if h.SLO.States[0] != slo.Inactive && h.SLO.States[0] != slo.Pending {
		t.Errorf("late state = %v on a clean run", h.SLO.States[0])
	}
	for i, ts := range s.SLOStatus().Targets {
		if h.SLO.Budgets[i] != ts.Budget || h.SLO.States[i] != ts.State {
			t.Errorf("%s: health budget %v state %v, status %v %v", ts.Target, h.SLO.Budgets[i], h.SLO.States[i], ts.Budget, ts.State)
		}
		for w, win := range ts.Windows {
			if h.SLO.Windows[i][w] != win.Count {
				t.Errorf("%s %s window: health %+v, status %+v", ts.Target, win.Window, h.SLO.Windows[i][w], win.Count)
			}
		}
	}
	if h.SLO.Windows[0][0].Population != 30*2 {
		t.Errorf("late fast population %d, want one per loaded disk-round", h.SLO.Windows[0][0].Population)
	}
}

// TestSLODisabled: a disabled audit is a true no-op — nil auditor,
// Enabled=false everywhere, rounds run unaffected.
func TestSLODisabled(t *testing.T) {
	s := sloServer(t, 1, nil, slo.Config{Disabled: true})
	for r := 0; r < 20; r++ {
		s.Step()
	}
	if s.SLOAuditor() != nil {
		t.Error("disabled audit still built an auditor")
	}
	if st := s.SLOStatus(); st.Enabled {
		t.Error("disabled audit reports enabled")
	}
	if h := s.Health(); h.SLO.Enabled {
		t.Error("disabled audit enabled in health")
	}
}

// TestSLOBudgetsFollowRecalibration: budgets re-publish through the same
// choke point as the admission limits, so a recalibrated model is also
// the one the audit measures against.
func TestSLOBudgetsFollowRecalibration(t *testing.T) {
	s := sloServer(t, 1, nil, slo.Config{})
	before := targetStatus(t, s.SLOStatus(), slo.TargetLate).Budget
	for r := 0; r < 60; r++ {
		s.Step()
	}
	if _, _, err := s.Recalibrate(10); err != nil {
		t.Fatalf("recalibrate: %v", err)
	}
	s.Step()
	after := targetStatus(t, s.SLOStatus(), slo.TargetLate).Budget
	if !(before > 0) || !(after > 0) {
		t.Fatalf("budgets before=%v after=%v, want both > 0", before, after)
	}
	// The synthetic workload matches the declared one, so the recalibrated
	// budget stays in the same regime (the point is republication, not a
	// specific value).
	snap := s.Telemetry().Registry().Snapshot()
	if v, ok := gaugeValue(snap, "mzqos_slo_budget", telemetry.L("target", "late")); !ok || v != after {
		t.Errorf("budget gauge = %v (%v), want %v", v, ok, after)
	}
}
