package sim

import (
	"math"
	"reflect"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/workload"
)

func faultCfg(n int, plan *fault.Plan) Config {
	return Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		N:           n,
		Workers:     2,
		Faults:      plan,
	}
}

func TestReplayRoundsDeterministic(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 0, From: 5, Until: 15, Factor: 1.8},
		{Kind: fault.ReadError, Disk: 0, From: 8, Until: 20, Prob: 0.25, Retries: 1},
		{Kind: fault.Failure, Disk: 0, From: 22, Until: 25},
	}}
	a, err := ReplayRounds(faultCfg(8, plan), 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayRounds(faultCfg(8, plan), 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical config+seed replays diverged")
	}
}

func TestReplayRoundsTimeline(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 0, From: 5, Until: 10, Factor: 3},
		{Kind: fault.Failure, Disk: 0, From: 12, Until: 14},
	}}
	outs, err := ReplayRounds(faultCfg(6, plan), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 20 {
		t.Fatalf("len = %d", len(outs))
	}
	for _, o := range outs {
		wantFaulty := (o.Round >= 5 && o.Round < 10) || (o.Round >= 12 && o.Round < 14)
		wantDown := o.Round >= 12 && o.Round < 14
		if o.Faulty != wantFaulty || o.Down != wantDown {
			t.Errorf("round %d: faulty=%v down=%v, want %v/%v", o.Round, o.Faulty, o.Down, wantFaulty, wantDown)
		}
		if o.Down {
			if o.Lost != 6 || o.Glitches != 6 {
				t.Errorf("down round %d: lost=%d glitches=%d, want 6/6", o.Round, o.Lost, o.Glitches)
			}
			if o.Total <= 8 { // beyond the histogram's 8t top bucket
				t.Errorf("down round %d total = %v, want sentinel past 8t", o.Round, o.Total)
			}
		}
	}
	// Healthy replay of the same config is fault-free end to end.
	clean, err := ReplayRounds(faultCfg(6, nil), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range clean {
		if o.Faulty || o.Down || o.Lost != 0 {
			t.Fatalf("healthy replay shows faults: %+v", o)
		}
	}
}

func TestLatencyFaultRaisesPLate(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 0, From: 0, Factor: 2},
	}}
	healthy := faultCfg(26, nil)
	degraded := faultCfg(26, plan)
	ph, err := EstimatePLate(healthy, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := EstimatePLate(degraded, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// At the paper's N_max the healthy tail is ≤ ~1%; doubled latency
	// pushes essentially every round past the deadline.
	if ph.P > 0.05 {
		t.Errorf("healthy p_late = %v, want small", ph.P)
	}
	if pd.P < 0.9 {
		t.Errorf("2x latency p_late = %v, want ≈1", pd.P)
	}
}

func TestFailedDiskStationaryEstimates(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: 0, From: 0},
	}}
	cfg := faultCfg(4, plan)
	p, err := EstimatePLate(cfg, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 1 {
		t.Errorf("p_late on a failed disk = %v, want 1", p.P)
	}
	pe, err := EstimatePError(cfg, 10, 1, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pe.P != 1 {
		t.Errorf("p_error on a failed disk = %v, want 1", pe.P)
	}
	bias, err := PositionBias(cfg, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pos, e := range bias {
		if e.P != 1 {
			t.Errorf("position %d bias = %v on a failed disk, want 1", pos, e.P)
		}
	}
}

func TestReadErrorFaultLosesFragments(t *testing.T) {
	plan := &fault.Plan{Seed: 17, Faults: []fault.Fault{
		{Kind: fault.ReadError, Disk: 0, From: 0, Prob: 0.5, Retries: 0},
	}}
	outs, err := ReplayRounds(faultCfg(10, plan), 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	total, lost := 0, 0
	for _, o := range outs {
		total += 10
		lost += o.Lost
		if o.Lost > o.Glitches {
			t.Fatalf("round %d: lost %d > glitches %d", o.Round, o.Lost, o.Glitches)
		}
	}
	// Retries=0 means every failed first read is lost: expect ≈ half.
	if frac := float64(lost) / float64(total); frac < 0.4 || frac > 0.6 {
		t.Errorf("lost fraction = %v, want ≈0.5", frac)
	}
}

func TestStationaryEffectsResolveAtFaultRound(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 0, From: 100, Until: 200, Factor: 2},
	}}
	inWindow := faultCfg(26, plan)
	inWindow.FaultRound = 150
	outWindow := faultCfg(26, plan)
	outWindow.FaultRound = 50
	pi, err := EstimatePLate(inWindow, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	po, err := EstimatePLate(outWindow, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if pi.P < 0.9 {
		t.Errorf("p_late inside the fault window = %v, want ≈1", pi.P)
	}
	if po.P > 0.05 {
		t.Errorf("p_late outside the fault window = %v, want small", po.P)
	}
}

// TestPositionBiasCountsLostReads is the regression for PositionBias's
// private sweep, which ignored read errors: when every read fails and
// there are no retries, every fragment is lost, so every SCAN position
// glitches every time — even at a load that never misses the deadline.
func TestPositionBiasCountsLostReads(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.ReadError, Disk: 0, From: 0, Prob: 1, Retries: 0},
	}}
	bias, err := PositionBias(faultCfg(4, plan), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pos, e := range bias {
		if e.P != 1 {
			t.Errorf("position %d bias = %v with every read lost, want 1", pos, e.P)
		}
	}
}

// TestDeadlineIsStrict: a request completing exactly at the round length
// is on time; one ulp later it is late (§2.3's "after the round end").
func TestDeadlineIsStrict(t *testing.T) {
	cfg := faultCfg(5, nil)
	round := func(roundLength float64) (float64, []bool) {
		cfg.RoundLength = roundLength
		late := make([]bool, cfg.N)
		var sc roundScratch
		total, _ := simulateRound(cfg, fault.Identity(), 0, nil, dist.NewRand(4, 44), &sc, late)
		return total, late
	}
	total, _ := round(1)
	count := func(late []bool) (n int) {
		for _, l := range late {
			if l {
				n++
			}
		}
		return n
	}
	if _, late := round(total); count(late) != 0 {
		t.Errorf("sweep ending exactly at the deadline %v marks %v late", total, late)
	}
	if _, late := round(math.Nextafter(total, 0)); count(late) != 1 {
		t.Errorf("sweep ending one ulp past the deadline marks %v late, want only the last request", late)
	}
}
