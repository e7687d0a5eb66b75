package server

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// heavyServer declares the paper workload but stores objects whose actual
// fragments are twice as large.
func heavyServer(t *testing.T) *Server {
	t.Helper()
	s := paperServer(t, 1)
	heavy, err := workload.GammaSizes(400*workload.KB, 200*workload.KB)
	if err != nil {
		t.Fatal(err)
	}
	rng := workloadRand()
	for i := 0; i < 30; i++ {
		sizes := make([]float64, 200)
		for j := range sizes {
			sizes[j] = heavy.Sample(rng)
		}
		if err := s.AddObject(fmt.Sprintf("h%d", i), sizes); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRecalibrateShrinksOnHeavierWorkload(t *testing.T) {
	s := heavyServer(t)
	for i := 0; i < 20; i++ {
		if _, _, err := s.Open(fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(60)

	// Observed sizes reflect the heavy reality, not the declared model.
	mean, sd, n := s.ObservedSizeStats()
	if n < 1000 {
		t.Fatalf("observed only %d fragments", n)
	}
	if math.Abs(mean-400*workload.KB) > 0.1*400*workload.KB {
		t.Errorf("observed mean = %v KB, want ≈400", mean/workload.KB)
	}
	if !(sd > 0) {
		t.Error("observed sd should be positive")
	}
	if drift := s.SizeDrift(); drift < 0.5 {
		t.Errorf("drift = %v, expected ≈1.0 (declared 200 KB, actual 400 KB)", drift)
	}

	old, now, err := s.Recalibrate(100)
	if err != nil {
		t.Fatal(err)
	}
	if old != 26 {
		t.Errorf("old limit = %d, want 26", old)
	}
	if !(now < old) {
		t.Errorf("recalibration did not shrink the limit: %d -> %d", old, now)
	}
	if s.PerDiskLimit() != now {
		t.Errorf("PerDiskLimit = %d, want %d", s.PerDiskLimit(), now)
	}
	// 400 KB fragments roughly halve the transfer budget: expect ≈13-16.
	if now < 10 || now > 18 {
		t.Errorf("new limit = %d, expected in [10,18]", now)
	}
}

func TestRecalibrateNeedsSamples(t *testing.T) {
	s := paperServer(t, 1)
	if _, _, err := s.Recalibrate(100); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestRecalibrateNoEviction(t *testing.T) {
	s := heavyServer(t)
	limit := s.PerDiskLimit()
	for i := 0; i < limit; i++ {
		if _, _, err := s.Open(fmt.Sprintf("h%d", i%30)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(30)
	_, now, err := s.Recalibrate(100)
	if err != nil {
		t.Fatal(err)
	}
	if now >= limit {
		t.Fatalf("limit did not shrink: %d -> %d", limit, now)
	}
	// Existing streams keep running (no evictions)...
	if s.Active() != limit {
		t.Errorf("Active = %d after recalibration, want %d", s.Active(), limit)
	}
	// ...but no new stream is admitted while above the new limit.
	if _, _, err := s.Open("h0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open above new limit err = %v, want ErrRejected", err)
	}
}

func TestRecalibrateStoresRefitSizes(t *testing.T) {
	// Regression: Recalibrate rebuilt the models from the refit size law
	// but left Config.Sizes untouched, so SizeDrift kept measuring against
	// the stale declared model and re-triggered recalibration forever.
	s := heavyServer(t)
	for i := 0; i < 20; i++ {
		if _, _, err := s.Open(fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(60)
	if drift := s.SizeDrift(); drift < 0.5 {
		t.Fatalf("pre-recalibration drift = %v, expected ≈1.0", drift)
	}
	if _, _, err := s.Recalibrate(100); err != nil {
		t.Fatal(err)
	}
	// The moved limit started a new epoch: nothing observed, no drift.
	if drift := s.SizeDrift(); drift != 0 {
		t.Errorf("post-recalibration drift = %v, want 0 in a new epoch", drift)
	}
	// The refit model now IS the declared model, so serving more of the
	// same workload shows (almost) no drift against it.
	s.Run(30)
	if drift := s.SizeDrift(); drift > 0.05 {
		t.Errorf("drift after more rounds = %v, want ≈0", drift)
	}
}

func TestRecalibrationShrinkUnderLoad(t *testing.T) {
	// A shrink while over-occupied must not evict, must close admission
	// (Open and ImportStream) until the class drains below the new limit,
	// and must never let occupancy exceed the new limit afterwards.
	s := heavyServer(t)
	limit := s.PerDiskLimit()
	ids := make([]StreamID, 0, limit)
	for i := 0; i < limit; i++ {
		id, _, err := s.Open(fmt.Sprintf("h%d", i%30))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Run(30)
	_, now, err := s.Recalibrate(100)
	if err != nil {
		t.Fatal(err)
	}
	if now >= limit {
		t.Fatalf("limit did not shrink: %d -> %d", limit, now)
	}
	if s.Active() != limit {
		t.Fatalf("shrink evicted streams: active = %d, want %d", s.Active(), limit)
	}

	// Export one stream: re-entry mid-playback must be refused while the
	// class is still over the new limit, exactly like a fresh Open.
	state, err := s.ExportStream(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ImportStream(state); !errors.Is(err, ErrRejected) {
		t.Errorf("import above new limit err = %v, want ErrRejected", err)
	}
	if _, _, err := s.Open("h0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open above new limit err = %v, want ErrRejected", err)
	}

	// Drain by closing newest-first until exactly the new limit remains
	// active (ids[1] stays running for the step below).
	for i := len(ids) - 1; i >= 2 && s.Active() > now; i-- {
		if err := s.Close(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Active() != now {
		t.Fatalf("drained to %d, want %d", s.Active(), now)
	}
	// At the limit: still closed...
	if _, _, err := s.Open("h0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open at new limit err = %v, want ErrRejected", err)
	}
	// ...one below: the import gets the slot, then the class is full again.
	if err := s.Close(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ImportStream(state); err != nil {
		t.Errorf("import below new limit err = %v", err)
	}
	if s.Active() != now {
		t.Errorf("active = %d after import, want %d", s.Active(), now)
	}
	if _, _, err := s.Open("h0"); !errors.Is(err, ErrRejected) {
		t.Errorf("open with class refilled err = %v, want ErrRejected", err)
	}
	// The invariant held throughout: occupancy never exceeded the new
	// limit after the drain.
	s.Run(10)
	if s.Active() > now {
		t.Errorf("active = %d exceeds recalibrated limit %d", s.Active(), now)
	}
}

// TestRecalibrateStartsNewEpoch holds Recalibrate to one rule: a refit
// that moves the limit starts a new observation epoch, and a refit that
// declines — too few samples, or a limit the refit keeps — clears nothing.
func TestRecalibrateStartsNewEpoch(t *testing.T) {
	s := heavyServer(t)
	for i := 0; i < 20; i++ {
		if _, _, err := s.Open(fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(60)
	_, _, n := s.ObservedSizeStats()
	if n == 0 {
		t.Fatal("no observations recorded")
	}
	if _, _, err := s.Recalibrate(n + 1); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("refit on %d of %d samples: err = %v, want ErrTooFewSamples", n, n+1, err)
	}
	if _, _, kept := s.ObservedSizeStats(); kept != n {
		t.Errorf("a declined refit left %d of %d observations", kept, n)
	}
	old, now, err := s.Recalibrate(n)
	if err != nil || now == old {
		t.Fatalf("refit of the heavy workload: %d -> %d, err %v; want a moved limit", old, now, err)
	}
	if _, _, left := s.ObservedSizeStats(); left != 0 {
		t.Errorf("a moved limit left %d observations, want a new epoch", left)
	}
	if s.SizeDrift() != 0 {
		t.Errorf("drift in a new epoch = %v", s.SizeDrift())
	}
	// The same workload under the refit limit: a second refit keeps the
	// limit, and the epoch with it.
	s.Run(60)
	_, _, n = s.ObservedSizeStats()
	if old, now, err := s.Recalibrate(n); err != nil || now != old {
		t.Fatalf("second refit: %d -> %d, err %v; want the limit kept", old, now, err)
	}
	if _, _, kept := s.ObservedSizeStats(); kept != n {
		t.Errorf("a refit that kept the limit left %d of %d observations", kept, n)
	}
}

func TestRecalibrateMatchesDirectModel(t *testing.T) {
	// Recalibrating on data matching the declared model keeps the limit.
	s := paperServer(t, 1)
	for i := 0; i < 20; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 300); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(200)
	old, now, err := s.Recalibrate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if d := now - old; d < -1 || d > 1 {
		t.Errorf("limit moved %d -> %d on matching data", old, now)
	}
	// The refit model reproduces the paper limit on its own.
	mdl, err := model.New(model.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mdl.NMaxLate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if d := now - want; d < -1 || d > 1 {
		t.Errorf("recalibrated limit %d vs direct model %d", now, want)
	}
}

// TestObservedSizesMatchPerFragment: Step folds each sweep's sizes into
// the recalibration moments with one merge; over 2 000 seeded rounds the
// result agrees with a Welford accumulator fed the same sizes one by one,
// and a down disk's fragments are counted by neither.
func TestObservedSizesMatchPerFragment(t *testing.T) {
	s, err := New(Config{
		Disk: disk.QuantumViking21(), NumDisks: 2, RoundLength: 1,
		Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 0.01}, Seed: 5,
		Faults: &fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.Failure, Disk: 1, From: 700, Until: 720}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity(); i++ {
		name := fmt.Sprintf("v%d", i)
		if err := s.AddSyntheticObject(name, 1500+20*i); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Open(name); err != nil {
			t.Fatal(err)
		}
	}
	var want dist.Welford
	for r := 0; r < 2000; r++ {
		for _, st := range s.active {
			d := mod(int(st.offset)+s.round, s.cfg.NumDisks)
			if s.round >= st.start && !s.inj.EffectsAt(d, s.round).Failed {
				want.Add(st.obj.frags[st.next].Size)
			}
		}
		s.Step()
	}
	mean, sd, n := s.ObservedSizeStats()
	if n != want.N() || n < 50000 {
		t.Fatalf("observed %d sizes, per-fragment accumulator saw %d", n, want.N())
	}
	if rel := math.Abs(mean-want.Mean()) / want.Mean(); rel > 1e-12 {
		t.Errorf("mean %v vs per-fragment %v: relative error %g", mean, want.Mean(), rel)
	}
	if rel := math.Abs(sd-want.Std()) / want.Std(); rel > 1e-12 {
		t.Errorf("std %v vs per-fragment %v: relative error %g", sd, want.Std(), rel)
	}
}
