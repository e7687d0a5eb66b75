package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/workload"
)

func testEngine(t testing.TB, numDisks, perDisk int, seed uint64, plan *fault.Plan) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Disk:         disk.QuantumViking21(),
		NumDisks:     numDisks,
		Sizes:        workload.PaperSizes(),
		RoundLength:  1,
		PerDiskLimit: perDisk,
		Seed:         seed,
		Faults:       plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := NewEngine(EngineConfig{
		Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(),
		RoundLength: 1, NumDisks: 2, PerDiskLimit: 0,
	}); err == nil {
		t.Error("zero per-disk limit should error")
	}
}

func TestEngineAdmissionLimit(t *testing.T) {
	e := testEngine(t, 4, 3, 7, nil)
	if e.Capacity() != 12 {
		t.Fatalf("Capacity = %d, want 12", e.Capacity())
	}
	if err := e.AddSyntheticObject("vod", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		id, _, err := e.Open("vod")
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		// Least-loaded class, lowest index on ties: opens deal out in turn.
		if c := e.streams[id].class; c != i%4 {
			t.Fatalf("open %d joined class %d, want %d", i, c, i%4)
		}
	}
	if _, _, err := e.Open("vod"); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("open past capacity: err = %v, want ErrRejected", err)
	}
	if e.Active() != 12 {
		t.Errorf("Active = %d, want 12", e.Active())
	}
	h := e.Health()
	if h.Active != 12 || h.Capacity != 12 || h.PerDiskLimit != 3 || h.Degraded {
		t.Errorf("Health = %+v, want 12 active over capacity 12", h)
	}
	if _, _, err := e.Open("ghost"); !errors.Is(err, engine.ErrUnknownObject) {
		t.Errorf("open unknown object: err = %v, want ErrUnknownObject", err)
	}
}

func TestEngineStepServesAndCompletes(t *testing.T) {
	e := testEngine(t, 4, 4, 11, nil)
	if err := e.AddSyntheticObject("clip", 3); err != nil {
		t.Fatal(err)
	}
	var ids []engine.StreamID
	for i := 0; i < 8; i++ {
		id, _, err := e.Open("clip")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sum := e.Run(3)
	if sum.Requests != 8*3 {
		t.Errorf("Requests = %d, want 24 (8 streams × 3 rounds)", sum.Requests)
	}
	if sum.Completed != 8 {
		t.Errorf("Completed = %d, want all 8", sum.Completed)
	}
	if e.Active() != 0 {
		t.Errorf("Active after completion = %d, want 0", e.Active())
	}
	if e.Round() != 3 {
		t.Errorf("Round = %d, want 3", e.Round())
	}
	_ = ids
	if sum.BusyTime <= 0 {
		t.Error("BusyTime should be positive for served rounds")
	}
}

func TestEngineStepDeterministic(t *testing.T) {
	run := func() []engine.RoundReport {
		e := testEngine(t, 3, 5, 99, nil)
		if err := e.AddSyntheticObject("vod", 6); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			if _, _, err := e.Open("vod"); err != nil {
				t.Fatal(err)
			}
		}
		var reps []engine.RoundReport
		for r := 0; r < 6; r++ {
			reps = append(reps, e.Step())
		}
		return reps
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("identical seeds produced different round reports")
	}
}

// TestEngineStepPhaseSplit: the simulated engine reports the same
// eq. 3.1.1 decomposition the live server does — every loaded disk's Busy
// is its Seek + Rotation + Transfer, retry revolutions included.
func TestEngineStepPhaseSplit(t *testing.T) {
	plan := &fault.Plan{Seed: 5, Faults: []fault.Fault{
		{Kind: fault.ReadError, Disk: 1, From: 0, Prob: 0.5, Retries: 2},
	}}
	e := testEngine(t, 3, 5, 99, plan)
	if err := e.AddSyntheticObject("vod", 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, _, err := e.Open("vod"); err != nil {
			t.Fatal(err)
		}
	}
	retries := 0
	for r := 0; r < 6; r++ {
		for d, dr := range e.Step().Disks {
			if dr.Requests == 0 {
				t.Fatalf("round %d disk %d idle", r, d)
			}
			if !(dr.Seek > 0 && dr.Rotation > 0 && dr.Transfer > 0) {
				t.Errorf("round %d disk %d: phases %v/%v/%v not all reported", r, d, dr.Seek, dr.Rotation, dr.Transfer)
			}
			if math.Abs(dr.Seek+dr.Rotation+dr.Transfer-dr.Busy) > 1e-9 {
				t.Errorf("round %d disk %d: %v+%v+%v != busy %v", r, d, dr.Seek, dr.Rotation, dr.Transfer, dr.Busy)
			}
			retries += dr.Retries
		}
	}
	if retries == 0 {
		t.Error("no retry revolutions reported under a 50% read-error plan")
	}
}

func TestEngineCloseReleasesSlot(t *testing.T) {
	e := testEngine(t, 2, 1, 5, nil)
	if err := e.AddSyntheticObject("vod", 10); err != nil {
		t.Fatal(err)
	}
	id1, _, err := e.Open("vod")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Open("vod"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Open("vod"); !errors.Is(err, ErrRejected) {
		t.Fatalf("open at capacity: err = %v, want ErrRejected", err)
	}
	if err := e.Close(id1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Open("vod"); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := e.Close(id1); !errors.Is(err, engine.ErrUnknownStream) {
		t.Errorf("double close: err = %v, want ErrUnknownStream", err)
	}
}

func TestEngineDegradeAndRecalibrate(t *testing.T) {
	e := testEngine(t, 2, 4, 3, nil)
	e.Degrade(1)
	if !e.Degraded() || e.PerDiskLimit() != 1 || e.Capacity() != 2 {
		t.Fatalf("after Degrade(1): degraded=%v limit=%d capacity=%d, want true/1/2",
			e.Degraded(), e.PerDiskLimit(), e.Capacity())
	}
	old, now, err := e.Recalibrate(0)
	if err != nil {
		t.Fatal(err)
	}
	if old != 1 || now != 4 {
		t.Errorf("Recalibrate = (%d, %d), want identity refresh (1, 4)", old, now)
	}
	if e.Degraded() || e.Capacity() != 8 {
		t.Error("Recalibrate should clear degradation and restore capacity")
	}
}

func TestEngineFailedDiskLosesFragments(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{{
		Kind: fault.Failure, Disk: 0, From: 0, Until: 2,
	}}}
	e := testEngine(t, 2, 4, 21, plan)
	if err := e.AddSyntheticObject("vod", 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := e.Open("vod"); err != nil {
			t.Fatal(err)
		}
	}
	rep := e.Step()
	if !rep.Disks[0].Down || !rep.Disks[0].Faulty {
		t.Fatalf("disk 0 should be down in round 0: %+v", rep.Disks[0])
	}
	if rep.Disks[0].Lost != rep.Disks[0].Requests {
		t.Errorf("down disk lost %d of %d requests, want all", rep.Disks[0].Lost, rep.Disks[0].Requests)
	}
	if rep.Glitches < rep.Disks[0].Lost {
		t.Errorf("Glitches = %d < lost %d", rep.Glitches, rep.Disks[0].Lost)
	}
	effs := e.FaultEffectsAt(0)
	if len(effs) != 2 || !effs[0].Failed || effs[1].Failed {
		t.Errorf("FaultEffectsAt(0) = %+v, want disk 0 failed only", effs)
	}
}
