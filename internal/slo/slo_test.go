package slo

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"
)

// brute recomputes the window estimates from a retained full history —
// the specification the ring-buffered estimators must match.
type obs struct {
	loaded, late       bool
	requests, glitches int
}

func bruteEstimate(history [][]obs, window int) (pLate, glitchRate float64) {
	var loaded, late, reqs, gl int64
	from := len(history) - window
	if from < 0 {
		from = 0
	}
	for _, round := range history[from:] {
		for _, o := range round {
			if o.loaded {
				loaded++
				if o.late {
					late++
				}
			}
			reqs += int64(o.requests)
			gl += int64(o.glitches)
		}
	}
	if loaded > 0 {
		pLate = float64(late) / float64(loaded)
	}
	if reqs > 0 {
		glitchRate = float64(gl) / float64(reqs)
	}
	return pLate, glitchRate
}

func windowByName(t *testing.T, ts TargetStatus, name string) WindowEstimate {
	t.Helper()
	for _, w := range ts.Windows {
		if w.Window == name {
			return w
		}
	}
	t.Fatalf("target %s has no %q window: %+v", ts.Target, name, ts.Windows)
	return WindowEstimate{}
}

func targetByName(t *testing.T, st Status, name string) TargetStatus {
	t.Helper()
	for _, ts := range st.Targets {
		if ts.Target == name {
			return ts
		}
	}
	t.Fatalf("status has no target %q", name)
	return TargetStatus{}
}

// TestWindowRotationMatchesBruteForce drives a randomized multi-disk
// observation sequence through the ring estimators and checks after
// every round that both windows' estimates equal a brute-force
// recomputation over exactly the in-window rounds — the property that
// estimates depend only on in-window history.
func TestWindowRotationMatchesBruteForce(t *testing.T) {
	const disks = 3
	aud, err := New(Config{FastWindow: 7, SlowWindow: 23}, disks)
	if err != nil {
		t.Fatal(err)
	}
	aud.SetBudgets(0.01, 0.001)
	rng := rand.New(rand.NewPCG(7, 9))

	var history [][]obs
	for round := 0; round < 200; round++ {
		rd := make([]obs, disks)
		for d := 0; d < disks; d++ {
			o := obs{loaded: rng.Float64() < 0.8}
			if o.loaded {
				o.requests = 1 + rng.IntN(20)
				o.late = rng.Float64() < 0.3
				o.glitches = rng.IntN(o.requests + 1)
				aud.ObserveDisk(d, o.late, o.requests, o.glitches)
			}
			rd[d] = o
		}
		history = append(history, rd)
		aud.EndRound()

		st := aud.Status()
		for _, wname := range []string{"fast", "slow"} {
			span := st.FastWindow
			if wname == "slow" {
				span = st.SlowWindow
			}
			wantLate, wantGlitch := bruteEstimate(history, span)
			late := windowByName(t, targetByName(t, st, TargetLate), wname)
			glitch := windowByName(t, targetByName(t, st, TargetGlitch), wname)
			if late.Measured != wantLate {
				t.Fatalf("round %d %s window: late estimate %v, brute force %v",
					round, wname, late.Measured, wantLate)
			}
			if glitch.Measured != wantGlitch {
				t.Fatalf("round %d %s window: glitch estimate %v, brute force %v",
					round, wname, glitch.Measured, wantGlitch)
			}
		}
	}
}

// TestObserveDiskCountsFitTheirSlot: a finalized round keeps its counts
// in 31 bits each, so ObserveDisk clamps them there, and a round read
// back out of the ring as it leaves each window must take exactly its own
// counts with it. Rows: a server's round, the most one offset class can
// bring a disk (N_max at model.New's cap of 2^16 streams), the slot's
// limit, past it, and below zero.
func TestObserveDiskCountsFitTheirSlot(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		requests, glitches         int
		wantRequests, wantGlitches int64
	}{
		{"server round", 26, 3, 26, 3},
		{"one class at the search cap", 1 << 16, 1 << 16, 1 << 16, 1 << 16},
		{"slot limit", maxCount, maxCount, maxCount, maxCount},
		{"past the limit", maxCount + 1, 1 << 40, maxCount, maxCount},
		{"negative", -5, -1, 0, 0},
	} {
		aud, err := New(Config{FastWindow: 1, SlowWindow: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		aud.SetBudgets(0.5, 0.5)
		aud.ObserveDisk(0, true, tc.requests, tc.glitches)
		aud.ObserveDisk(0, true, tc.requests, tc.glitches) // replaces, not adds
		aud.EndRound()
		aud.ObserveDisk(0, false, 7, 1)
		aud.EndRound()
		aud.ObserveDisk(0, false, 9, 2)
		aud.EndRound()
		// Round 1 has left both windows: the fast one after round 2, the
		// slow one after round 3.
		h := aud.Health()
		want := [numTargets][2]Count{
			idxLate:   {{0, 1}, {0, 2}},
			idxGlitch: {{2, 9}, {3, 16}},
		}
		if h.Windows != want {
			t.Errorf("%s: windows %+v after round 1 left them, want %+v", tc.name, h.Windows, want)
		}
		// Round 1 alone, in the slow window of a fresh auditor.
		aud, _ = New(Config{FastWindow: 1, SlowWindow: 2}, 1)
		aud.ObserveDisk(0, true, tc.requests, tc.glitches)
		aud.EndRound()
		aud.ObserveDisk(0, false, 0, 0)
		aud.EndRound()
		if got := aud.Health().Windows[idxGlitch][1]; got != (Count{tc.wantGlitches, tc.wantRequests}) {
			t.Errorf("%s: the slow window holds %+v of round 1, want %d of %d", tc.name, got, tc.wantGlitches, tc.wantRequests)
		}
	}
}

// TestWindowForgetsOutOfWindowRounds: after SlowWindow clean rounds, a
// violent past must have aged out of both windows entirely. Against a
// zero budget too, where every violation rejects, the status must
// marshal to JSON (no ±Inf anywhere).
func TestWindowForgetsOutOfWindowRounds(t *testing.T) {
	for _, budget := range []float64{0.01, 0} {
		aud, err := New(Config{FastWindow: 8, SlowWindow: 32}, 2)
		if err != nil {
			t.Fatal(err)
		}
		aud.SetBudgets(budget, budget/10)
		for r := 0; r < 20; r++ { // a disastrous prefix: every round late
			aud.ObserveDisk(0, true, 10, 10)
			aud.ObserveDisk(1, true, 10, 10)
			aud.EndRound()
		}
		if _, err := json.Marshal(aud.Status()); err != nil {
			t.Fatalf("budget %v: status does not marshal: %v", budget, err)
		}
		for r := 0; r < 32; r++ { // one full slow window of clean rounds
			aud.ObserveDisk(0, false, 10, 0)
			aud.ObserveDisk(1, false, 10, 0)
			aud.EndRound()
		}
		st := aud.Status()
		for _, ts := range st.Targets {
			for _, w := range ts.Windows {
				if w.Violations != 0 || w.Measured != 0 {
					t.Errorf("budget %v: target %s %s window still remembers out-of-window rounds: %+v",
						budget, ts.Target, w.Window, w)
				}
			}
		}
	}
}

// TestMeasuredMonotoneInViolationRate: injecting a higher violation rate
// must never produce a lower steady-state measured rate.
func TestMeasuredMonotoneInViolationRate(t *testing.T) {
	rates := []float64{0, 0.1, 0.25, 0.5, 0.75, 1}
	var prevFast, prevSlow float64
	for i, p := range rates {
		aud, err := New(Config{FastWindow: 20, SlowWindow: 100}, 1)
		if err != nil {
			t.Fatal(err)
		}
		aud.SetBudgets(0.01, 0.001)
		var ev Evaluation
		for r := 0; r < 100; r++ {
			late := float64(int(float64(r+1)*p))-float64(int(float64(r)*p)) >= 1
			gl := 0
			if late {
				gl = 5
			}
			aud.ObserveDisk(0, late, 10, gl)
			ev = aud.EndRound()
		}
		fast, slow := ev.Late.Fast.Rate(), ev.Late.Slow.Rate()
		if i > 0 {
			if fast < prevFast {
				t.Errorf("rate %v: fast measured %v fell below rate %v's %v",
					p, fast, rates[i-1], prevFast)
			}
			if slow < prevSlow {
				t.Errorf("rate %v: slow measured %v fell below rate %v's %v",
					p, slow, rates[i-1], prevSlow)
			}
		}
		prevFast, prevSlow = fast, slow
	}
}

// TestAlertLifecycle walks the machine through its full path: clean →
// violation (Firing) → recovery (Resolved) → Inactive, and checks that
// EndRound flags each leg as a transition.
func TestAlertLifecycle(t *testing.T) {
	aud, err := New(Config{FastWindow: 8, SlowWindow: 24, ResolvedFor: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aud.SetBudgets(0.01, 0.001)

	var path []string
	step := func(late bool) Evaluation {
		gl := 0
		if late {
			gl = 3
		}
		aud.ObserveDisk(0, late, 10, gl)
		ev := aud.EndRound()
		if ev.Late.Transition {
			path = append(path, ev.Late.State.String())
		}
		return ev
	}

	for r := 0; r < 30; r++ { // clean warm-up
		if ev := step(false); ev.Late.State != Inactive {
			t.Fatalf("round %d: clean load but state %v", r, ev.Late.State)
		}
	}
	var ev Evaluation
	sawFiring := false
	for r := 0; r < 30; r++ { // sustained violation
		ev = step(true)
		if ev.Late.State == Firing {
			sawFiring = true
		}
	}
	if !sawFiring || ev.Late.State != Firing {
		t.Fatalf("sustained violation never reached Firing (end state %v)", ev.Late.State)
	}
	// Recovery: both windows' rates fall below the budget after
	// SlowWindow clean rounds, which resolves the alert, and ResolvedFor
	// rounds later it returns to Inactive. After the fast window alone has
	// cleared, it is still Firing.
	resolvedAt := -1
	for r := 0; r < 24+5; r++ {
		ev = step(false)
		if r == 8 && ev.Late.State != Firing {
			t.Fatalf("%v once only the fast window has cleared, want Firing", ev.Late.State)
		}
		if ev.Late.State == Resolved && resolvedAt < 0 {
			resolvedAt = r
		}
	}
	if resolvedAt != 24-1 {
		t.Fatalf("recovered load resolved at clean round %d, want %d: the slow window's span", resolvedAt, 24-1)
	}
	if ev.Late.State != Inactive {
		t.Fatalf("state %v after full recovery, want Inactive", ev.Late.State)
	}

	st := aud.Status()
	ts := targetByName(t, st, TargetLate)
	if ts.FiredTotal != 1 || ts.ResolvedTotal != 1 {
		t.Fatalf("fired=%d resolved=%d, want 1 and 1", ts.FiredTotal, ts.ResolvedTotal)
	}
	want := "firing,resolved,inactive"
	if got := strings.Join(path, ","); !strings.HasSuffix(got, want) {
		t.Fatalf("transition path %q does not end with %q", got, want)
	}
}

// TestAlertHysteresisNoFlap moves the fast window's count back and forth
// across its critical count. The gap between the critical count and the
// mean is the hysteresis: it must hold the alert in Firing with exactly
// one fired transition — no flapping across the Pending/Firing boundary.
func TestAlertHysteresisNoFlap(t *testing.T) {
	// Budget 0.05 over 8 rounds: the fast window rejects at 4 late rounds
	// (P[Bin(8, 0.05) ≥ 4] ≈ 3.7e-4) and resolves only below 0.4 of one.
	aud, err := New(Config{FastWindow: 8, SlowWindow: 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aud.SetBudgets(0.05, 0.05)
	step := func(late bool) Evaluation {
		aud.ObserveDisk(0, late, 4, 2)
		return aud.EndRound()
	}
	for r := 0; r < 20; r++ { // drive to Firing: every round late
		step(true)
	}
	if st := aud.Status(); targetByName(t, st, TargetLate).State != Firing {
		t.Fatalf("setup: not Firing: %+v", st.Targets)
	}
	// Oscillate: two late rounds in every five keep the fast count at 3
	// or 4 — around the critical count, far above the mean.
	crossed := 0
	for r := 0; r < 100; r++ {
		step(r%5 == 0 || r%5 == 2)
		if w := windowByName(t, targetByName(t, aud.Status(), TargetLate), "fast"); w.Violations < w.Critical {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("setup: the fast count never fell below the critical count")
	}
	ts := targetByName(t, aud.Status(), TargetLate)
	if ts.State != Firing {
		t.Fatalf("oscillation drove the alert out of Firing: %v", ts.State)
	}
	if ts.FiredTotal != 1 {
		t.Fatalf("alert flapped: fired %d times, want 1", ts.FiredTotal)
	}
}

// TestMultiWindowSuppressesSingleRoundNoise: a two-round burst rejects
// the budget in the fast window but not in the slow one, so the alert
// reaches Pending, never Firing.
func TestMultiWindowSuppressesSingleRoundNoise(t *testing.T) {
	aud, err := New(Config{FastWindow: 4, SlowWindow: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aud.SetBudgets(0.01, 0.001)
	for r := 0; r < 64; r++ {
		aud.ObserveDisk(0, false, 10, 0)
		aud.EndRound()
	}
	var ev Evaluation
	for r := 0; r < 2; r++ { // the burst
		aud.ObserveDisk(0, true, 10, 5)
		ev = aud.EndRound()
	}
	if ev.Late.State != Pending {
		t.Fatalf("a two-round burst left the alert %v, want Pending (fast %+v slow %+v)",
			ev.Late.State, ev.Late.Fast, ev.Late.Slow)
	}
	for r := 0; r < 20; r++ {
		aud.ObserveDisk(0, false, 10, 0)
		ev = aud.EndRound()
	}
	ts := targetByName(t, aud.Status(), TargetLate)
	if ts.FiredTotal != 0 {
		t.Fatalf("single-round noise fired the alert %d times", ts.FiredTotal)
	}
	if ts.State != Inactive {
		t.Fatalf("state %v after noise cleared, want Inactive", ts.State)
	}
}

// TestBurnCapIsFinite: against a zero budget a single violation is
// the whole case. The critical count stays finite (1: any violation
// rejects), the alert fires on it at once, and the status marshals to
// JSON (no ±Inf or NaN anywhere).
func TestBurnCapIsFinite(t *testing.T) {
	aud, err := New(Config{FastWindow: 2, SlowWindow: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aud.SetBudgets(0, 0) // no budget at all
	aud.ObserveDisk(0, true, 5, 5)
	ev := aud.EndRound()
	if ev.Late.State != Firing || ev.Glitch.State != Firing {
		t.Fatalf("zero-budget violation states = %v/%v, want firing/firing",
			ev.Late.State, ev.Glitch.State)
	}
	st := aud.Status()
	for _, ts := range st.Targets {
		for _, w := range ts.Windows {
			if w.Critical != 1 {
				t.Errorf("target %s %s window: critical %d at zero budget, want 1",
					ts.Target, w.Window, w.Critical)
			}
		}
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("status does not marshal: %v", err)
	}
}

// TestDisabledAuditorIsNoOp: a nil auditor (Disabled config) ignores
// every call and reports a disabled status.
func TestDisabledAuditorIsNoOp(t *testing.T) {
	aud, err := New(Config{Disabled: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if aud != nil {
		t.Fatalf("disabled config built an auditor")
	}
	aud.SetBudgets(1, 1)
	aud.ObserveDisk(0, true, 1, 1)
	if ev := aud.EndRound(); ev.Round != -1 {
		t.Fatalf("nil EndRound round = %d, want -1", ev.Round)
	}
	if st := aud.Status(); st.Enabled {
		t.Fatal("nil auditor reports an enabled status")
	}
}

// TestStateTextRoundTrip: the state names survive a JSON round trip.
func TestStateTextRoundTrip(t *testing.T) {
	for _, s := range []State{Inactive, Pending, Firing, Resolved} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("state %v round-tripped to %v (json %s)", s, back, b)
		}
	}
	var bad State
	if err := bad.UnmarshalText([]byte("exploded")); err == nil {
		t.Fatal("unknown state name parsed")
	}
}

// TestConfigDefaults: zero fields take the documented defaults and fast
// is clamped to slow.
func TestConfigDefaults(t *testing.T) {
	aud, err := New(Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := aud.cfg
	if cfg.FastWindow != DefaultFastWindow || cfg.SlowWindow != DefaultSlowWindow ||
		cfg.ResolvedFor != DefaultResolvedFor {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	aud, err = New(Config{FastWindow: 100, SlowWindow: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := aud.cfg.FastWindow; got != 10 {
		t.Fatalf("fast window not clamped to slow: %d", got)
	}
	if _, err := New(Config{}, 0); err == nil {
		t.Fatal("zero disks accepted")
	}
}
