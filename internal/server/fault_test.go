package server

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/sim"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// faultServer builds a paper-parameter server with the given fault plan
// and degradation config, loaded to capacity with independent streams
// (one per object, the model's §2.1 assumption).
func faultServer(t testing.TB, disks int, plan *fault.Plan, deg DegradeConfig) *Server {
	t.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults:      plan,
		Degrade:     deg,
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

// determinismPlan exercises every fault kind inside the test horizon.
func determinismPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 7,
		Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 20, Until: 60, Factor: 1.5},
			{Kind: fault.ReadError, Disk: 0, From: 30, Until: 90, Prob: 0.2, Retries: 2},
			{Kind: fault.ZoneRate, Disk: 1, From: 40, Until: 80, Factor: 0.7},
			{Kind: fault.Failure, Disk: 1, From: 100, Until: 105},
		},
	}
}

// TestStepDeterminism is the regression for the map-iteration bug: two
// servers built from the identical Config (and Seed) must produce
// byte-identical per-round reports and run summaries — including while a
// fault plan is perturbing the sweeps. Before the fix, requests were
// gathered in Go's randomized map order, so the per-request rotational
// draws diverged between runs.
func TestStepDeterminism(t *testing.T) {
	run := func() ([]RoundReport, RunSummary) {
		s := faultServer(t, 2, determinismPlan(), DegradeConfig{Enabled: true})
		reps := make([]RoundReport, 0, 110)
		for i := 0; i < 110; i++ {
			reps = append(reps, s.Step())
		}
		return reps, s.Run(110)
	}
	repsA, sumA := run()
	repsB, sumB := run()
	if sumA != sumB {
		t.Errorf("run summaries diverge:\n%+v\n%+v", sumA, sumB)
	}
	for i := range repsA {
		if !reflect.DeepEqual(repsA[i], repsB[i]) {
			t.Fatalf("round %d reports diverge:\n%+v\n%+v", i, repsA[i], repsB[i])
		}
	}
}

// TestStepDeterminismHealthy covers the plain no-fault path of the same
// regression over a longer horizon.
func TestStepDeterminismHealthy(t *testing.T) {
	run := func() ([]RoundReport, RunSummary) {
		s := faultServer(t, 2, nil, DegradeConfig{})
		reps := make([]RoundReport, 0, 100)
		for i := 0; i < 100; i++ {
			reps = append(reps, s.Step())
		}
		return reps, s.Run(100)
	}
	repsA, sumA := run()
	repsB, sumB := run()
	if sumA != sumB {
		t.Errorf("run summaries diverge:\n%+v\n%+v", sumA, sumB)
	}
	for i := range repsA {
		if !reflect.DeepEqual(repsA[i], repsB[i]) {
			t.Fatalf("round %d reports diverge", i)
		}
	}
}

// latencyPlan doubles every service phase on disk 0 from round `from` to
// round `until`.
func latencyPlan(from, until int) *fault.Plan {
	return &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 0, From: from, Until: until, Factor: 2},
	}}
}

// TestFaultViolatesGuaranteeWithoutDegradation is acceptance half (a): a
// sustained 2× latency fault with no degraded-mode reaction pushes the
// measured late tail past the analytic bound the streams were admitted
// under, and the telemetry catches the violation live.
func TestFaultViolatesGuaranteeWithoutDegradation(t *testing.T) {
	s := faultServer(t, 1, latencyPlan(50, 0), DegradeConfig{})
	s.Run(200)

	rep, err := s.BoundTightness()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WithinBounds() {
		t.Errorf("bound report claims the guarantee holds under an unhandled 2x latency fault:\n%+v", rep.Disks)
	}
	d0 := rep.Disks[0]
	if d0.EmpiricalPLate <= d0.BoundPLate {
		t.Errorf("empirical p_late %v did not exceed bound %v", d0.EmpiricalPLate, d0.BoundPLate)
	}
	// The limit never moved and nothing was shed.
	if s.PerDiskLimit() != 26 || s.Degraded() {
		t.Errorf("limit = %d degraded = %v, want untouched 26/false", s.PerDiskLimit(), s.Degraded())
	}
	snap := s.Telemetry().Registry().Snapshot()
	if v, ok := counterValue(snap, "mzqos_server_fault_rounds_total", telemetry.L("disk", "0")); !ok || v != 150 {
		t.Errorf("fault rounds counter = %v (%v), want 150", v, ok)
	}
	if v, _ := gaugeValue(snap, "mzqos_server_fault_active_disks"); v != 1 {
		t.Errorf("fault active gauge = %v, want 1", v)
	}
}

// TestDegradationRestoresGuarantee is acceptance half (b): with the
// degraded-mode controller enabled the server re-derives N_max against the
// degraded disk, sheds newest streams to fit, and the live bound-vs-
// measured report shows the (degraded) guarantee re-established while the
// fault persists; once the fault clears the healthy limits come back.
func TestDegradationRestoresGuarantee(t *testing.T) {
	s := faultServer(t, 1, latencyPlan(50, 250), DegradeConfig{Enabled: true})
	sum := s.Run(150) // rounds 0..149: healthy until 50, degraded by ~53

	if !s.Degraded() {
		t.Fatal("server did not enter degraded mode under a sustained fault")
	}
	degLimit := s.PerDiskLimit()
	if degLimit <= 0 || degLimit >= 26 {
		t.Errorf("degraded limit = %d, want in (0, 26)", degLimit)
	}
	if sum.Evicted == 0 {
		t.Error("no streams were shed to the degraded limit")
	}
	if got := s.Active(); got != degLimit {
		t.Errorf("active = %d after shedding, want the degraded limit %d", got, degLimit)
	}
	// Admission respects the degraded limit.
	if _, _, err := s.Open("v0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open at degraded capacity err = %v, want ErrRejected", err)
	}
	// The guarantee holds again under the degraded model: the analytic
	// bounds now describe the disk as it actually is.
	rep, err := s.BoundTightness()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WithinBounds() {
		t.Errorf("degraded guarantee not re-established:\n%+v", rep.Disks)
	}

	snap := s.Telemetry().Registry().Snapshot()
	if v, _ := gaugeValue(snap, "mzqos_server_degraded"); v != 1 {
		t.Errorf("degraded gauge = %v, want 1", v)
	}
	if v, _ := counterValue(snap, "mzqos_server_fault_evictions_total"); v != int64(sum.Evicted) {
		t.Errorf("eviction counter = %d, want %d", v, sum.Evicted)
	}

	// Ride out the fault (ends at round 250) and the debounce window: the
	// healthy limits are restored and admission reopens.
	s.Run(120)
	if s.Degraded() {
		t.Error("server still degraded after the fault cleared")
	}
	if s.PerDiskLimit() != 26 {
		t.Errorf("restored limit = %d, want 26", s.PerDiskLimit())
	}
	if _, _, err := s.Open("v1"); err != nil {
		t.Errorf("open after recovery err = %v", err)
	}
	snap = s.Telemetry().Registry().Snapshot()
	if v, _ := gaugeValue(snap, "mzqos_server_degraded"); v != 0 {
		t.Errorf("degraded gauge = %v after recovery, want 0", v)
	}
	if v, _ := counterValue(snap, "mzqos_server_degraded_transitions_total"); v != 2 {
		t.Errorf("transitions = %d, want 2 (enter + exit)", v)
	}
}

// TestRetryLawDegradesToZero: read errors alone can close admission. At
// p = 0.95 with 255 retries a request pays 19 revolutions on average, so
// b_late(1) ≈ 0.038 > δ and the degraded limit is 0: every stream is shed,
// the binding disk's explanation reads Overload, no disk is failed, and
// the healthy limit returns once the fault clears.
func TestRetryLawDegradesToZero(t *testing.T) {
	plan, err := fault.ParsePlan("errors:disk=all,from=20,until=120,prob=0.95,retries=255", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := faultServer(t, 2, &plan, DegradeConfig{Enabled: true})
	open := s.Active()
	if s.PerDiskLimit() != 26 || open != 2*26 {
		t.Fatalf("healthy limit %d with %d open, want 26 and 52", s.PerDiskLimit(), open)
	}
	sum := s.Run(40)
	if !s.Degraded() || s.PerDiskLimit() != 0 {
		t.Fatalf("degraded %v with limit %d, want degraded to 0", s.Degraded(), s.PerDiskLimit())
	}
	if s.Active() != 0 || sum.Evicted != open {
		t.Errorf("%d streams open, %d evicted: want every one of %d shed", s.Active(), sum.Evicted, open)
	}
	if s.Health().Failed {
		t.Error("reported failed: no disk is down")
	}
	st := s.AdmissionStatus()
	exp := st.Explanations[st.BindingDisk]
	if !exp.Overload || exp.NMax != 0 || exp.Bound != "b_late" || !(exp.ValueAtBindingK > 0.01) {
		t.Errorf("binding explanation %+v, want Overload with b_late(1) > δ", exp)
	}
	if _, _, err := s.Open("v0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open at limit 0: %v, want ErrRejected", err)
	}
	s.Run(120) // the fault ends at round 120, then the debounce window
	if s.Degraded() || s.PerDiskLimit() != 26 {
		t.Errorf("after the fault: degraded %v with limit %d, want the healthy 26", s.Degraded(), s.PerDiskLimit())
	}
}

// TestDegradeRederivesOnShapeChange: a second fault joining inside an
// already degraded window changes the effects the limits must model, so
// the controller re-derives them. The applied effects are compared by
// value against Step's reused effects scratch; were they the same slice,
// the change would compare equal to itself and go unseen.
func TestDegradeRederivesOnShapeChange(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: fault.AllDisks, From: 5, Until: 60, Factor: 1.3},
		{Kind: fault.ZoneRate, Disk: 0, From: 30, Until: 60, Factor: 0.6},
	}}
	s := faultServer(t, 2, plan, DegradeConfig{Enabled: true})
	s.Run(20)
	first := s.PerDiskLimit()
	if !s.Degraded() || first >= 26 {
		t.Fatalf("after the latency fault: degraded=%v limit=%d, want degraded below 26", s.Degraded(), first)
	}
	s.Run(20) // the rate fault joins at round 30
	if second := s.PerDiskLimit(); second >= first {
		t.Errorf("limit stayed %d (was %d) after the fault changed shape", second, first)
	}
	s.Run(40) // both clear at 60
	if s.Degraded() || s.PerDiskLimit() != 26 {
		t.Errorf("after recovery: degraded=%v limit=%d, want healthy 26", s.Degraded(), s.PerDiskLimit())
	}
}

// TestDegradedLimitIsBindingDisk: degrading one disk of three gives the
// array per-disk geometries, and the slowest disk's N_max binds the whole
// array, since round-robin striping routes every stream over every disk.
// Its model is the one the limits, their quote and the reports name.
func TestDegradedLimitIsBindingDisk(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 1, From: 5, Until: 100, Factor: 1.5},
	}}
	s := faultServer(t, 3, plan, DegradeConfig{Enabled: true})
	s.Run(20)
	a := s.AdmissionStatus()
	if !a.Degraded || a.BindingDisk != 1 {
		t.Fatalf("degraded=%v binding disk %d, want the slowed disk 1", a.Degraded, a.BindingDisk)
	}
	if healthy, slowed := a.Explanations[0].NMax, a.Explanations[1].NMax; healthy != 26 || slowed >= healthy ||
		a.NMax != slowed || s.PerDiskLimit() != slowed || s.Capacity() != 3*slowed {
		t.Errorf("disk N_max healthy %d slowed %d; limit %d, capacity %d: want 26, the slowed disk's below it binding all three disks",
			healthy, slowed, s.PerDiskLimit(), s.Capacity())
	}
}

// TestDiskFailureClosesAdmissionWithoutEviction: a full disk failure zeroes
// the admission limit while it lasts, but by default running streams ride
// out the outage (taking glitches) instead of being evicted.
func TestDiskFailureClosesAdmissionWithoutEviction(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: 0, From: 10, Until: 40},
	}}
	s := faultServer(t, 2, plan, DegradeConfig{Enabled: true})
	before := s.Active()
	sum := s.Run(30) // failure active from round 10, degraded by ~13

	if !s.Degraded() || s.PerDiskLimit() != 0 {
		t.Errorf("degraded=%v limit=%d during failure, want true/0", s.Degraded(), s.PerDiskLimit())
	}
	if sum.Evicted != 0 || s.Active() != before {
		t.Errorf("failure evicted %d streams (active %d -> %d), want none", sum.Evicted, before, s.Active())
	}
	if sum.Lost == 0 {
		t.Error("no fragments recorded lost on a down disk")
	}
	if _, _, err := s.Open("v0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open during failure err = %v, want ErrRejected", err)
	}
	snap := s.Telemetry().Registry().Snapshot()
	if v, ok := counterValue(snap, "mzqos_server_down_rounds_total", telemetry.L("disk", "0")); !ok || v == 0 {
		t.Errorf("down rounds counter = %v (%v), want > 0", v, ok)
	}

	// Recovery: failure ends at round 40, restore after the clean window.
	s.Run(20)
	if s.Degraded() || s.PerDiskLimit() != 26 {
		t.Errorf("degraded=%v limit=%d after recovery, want false/26", s.Degraded(), s.PerDiskLimit())
	}
}

// TestReadErrorsRetryAndLose: transient read errors cost retry revolutions
// and lose fragments once the in-round retry budget is exhausted.
func TestReadErrorsRetryAndLose(t *testing.T) {
	plan := &fault.Plan{Seed: 99, Faults: []fault.Fault{
		{Kind: fault.ReadError, Disk: 0, From: 0, Until: 0, Prob: 0.3, Retries: 1},
	}}
	s := faultServer(t, 1, plan, DegradeConfig{})
	sum := s.Run(100)
	if sum.Lost == 0 {
		t.Error("no fragments lost at 30% error rate with 1 retry")
	}
	snap := s.Telemetry().Registry().Snapshot()
	if v, _ := counterValue(snap, "mzqos_server_fault_retries_total", telemetry.L("disk", "0")); v == 0 {
		t.Error("no retries recorded")
	}
	if v, _ := counterValue(snap, "mzqos_server_lost_fragments_total", telemetry.L("disk", "0")); int(v) != sum.Lost {
		t.Errorf("lost counter = %d, want %d", v, sum.Lost)
	}
}

// TestServerAndSimShareFaultSchedule: the same plan drives the server's
// round loop and the simulator's timeline replay to the identical
// faulty/down pattern — the property that makes analytic-vs-simulated
// comparisons under faults meaningful.
func TestServerAndSimShareFaultSchedule(t *testing.T) {
	plan := determinismPlan()
	const rounds = 120

	s := faultServer(t, 2, plan, DegradeConfig{})
	serverFaulty := make([]bool, rounds)
	serverDown := make([]bool, rounds)
	for i := 0; i < rounds; i++ {
		rep := s.Step()
		serverFaulty[i] = rep.Disks[1].Faulty
		serverDown[i] = rep.Disks[1].Down
	}

	outs, err := sim.ReplayRounds(sim.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		N:           10,
		Faults:      plan,
		FaultDisk:   1,
	}, rounds, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Faulty != serverFaulty[i] {
			t.Fatalf("round %d: sim faulty=%v, server faulty=%v", i, o.Faulty, serverFaulty[i])
		}
		// Down requires load on the server side to be reported per sweep;
		// the class loads here keep every round loaded, so compare directly.
		if o.Down != serverDown[i] {
			t.Fatalf("round %d: sim down=%v, server down=%v", i, o.Down, serverDown[i])
		}
	}
}

// TestShedsNewestFirst: a degraded limit sheds each over-full offset class
// down to its oldest streams, keeping the service promise made first.
func TestShedsNewestFirst(t *testing.T) {
	s := faultServer(t, 2, latencyPlan(5, 0), DegradeConfig{Enabled: true})
	classes := make([][]StreamID, len(s.classes))
	for _, st := range s.active {
		classes[st.offset] = append(classes[st.offset], st.id)
	}
	s.Run(20)
	limit := s.PerDiskLimit()
	if !s.Degraded() || limit >= len(classes[0]) {
		t.Fatalf("degraded %v to limit %d: nothing to shed from %d streams a class", s.Degraded(), limit, len(classes[0]))
	}
	var want []StreamID
	for _, ids := range classes {
		want = append(want, ids[:min(limit, len(ids))]...)
	}
	slices.Sort(want)
	if got := s.ActiveStreams(); !slices.Equal(got, want) {
		t.Fatalf("survivors %v, want each class's oldest %d: %v", got, limit, want)
	}
}

// TestGlitchBoundCoversReadErrorLoss: under read errors on every disk a
// fragment glitches when it is late or lost, and a read is lost with
// probability p^(r+1), when every one of its attempts fails. The glitch
// bound each disk quotes at its peak load must cover the glitch rate it
// measured, losses included, once the controller has degraded to the
// errors.
func TestGlitchBoundCoversReadErrorLoss(t *testing.T) {
	for _, c := range []struct {
		p float64
		r int
	}{{0.5, 1}, {0.5, 0}, {0.2, 1}, {0.02, 2}} {
		t.Run(fmt.Sprintf("p=%g,r=%d", c.p, c.r), func(t *testing.T) {
			plan, err := fault.ParsePlan(fmt.Sprintf("errors:disk=all,prob=%g,retries=%d", c.p, c.r), 3)
			if err != nil {
				t.Fatal(err)
			}
			s := faultServer(t, 2, &plan, DegradeConfig{Enabled: true})
			s.Run(200)
			if !s.Degraded() {
				t.Fatal("not degraded under standing read errors")
			}
			rep, err := s.BoundTightness()
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rep.Disks {
				if !(row.EmpiricalGlitchRate <= row.BoundGlitch) {
					t.Errorf("disk %d: measured glitch rate %.4g over %d fragments, bound %.4g at peak load %d",
						row.Disk, row.EmpiricalGlitchRate, row.Requests, row.BoundGlitch, row.PeakLoad)
				}
			}
		})
	}
}
