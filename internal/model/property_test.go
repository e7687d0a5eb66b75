package model

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

// Property: the lateness bound decreases when the round gets longer at a
// fixed fragment size (more time for the same work).
func TestLateBoundDecreasingInRoundLength(t *testing.T) {
	prev := 2.0
	for _, rl := range []float64{0.8, 1.0, 1.25, 1.6, 2.0} {
		m, err := New(Config{
			Disk:        disk.QuantumViking21(),
			Sizes:       workload.PaperSizes(),
			RoundLength: rl,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.LateBound(26)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Errorf("t=%v: bound %v not below previous %v", rl, b, prev)
		}
		prev = b
	}
}

// Property: faster media (scaled track capacities) never reduces the
// admission limit.
func TestNMaxMonotoneInDiskSpeed(t *testing.T) {
	prev := 0
	for _, factor := range []float64{1, 1.25, 1.5, 2, 3} {
		g, err := disk.QuantumViking21().Scaled("scaled", factor)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.NMaxLate(0.01)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Errorf("factor %v: N_max %d below previous %d", factor, n, prev)
		}
		prev = n
	}
}

// Property: for random workloads, bounds stay in [0,1], N_max stays
// consistent with the bound at N_max and N_max+1, and the glitch bound
// never exceeds the lateness bound.
func TestModelInvariantsRandomWorkloads(t *testing.T) {
	g := disk.QuantumViking21()
	prop := func(meanRaw, cvRaw, deltaRaw float64) bool {
		mean := (50 + math.Abs(math.Mod(meanRaw, 400))) * workload.KB
		cv := 0.1 + math.Abs(math.Mod(cvRaw, 1.2))
		delta := 0.001 + math.Abs(math.Mod(deltaRaw, 0.2))
		sizes, err := workload.GammaSizes(mean, cv*mean)
		if err != nil {
			return false
		}
		m, err := New(Config{Disk: g, Sizes: sizes, RoundLength: 1})
		if err != nil {
			return false
		}
		n, err := m.NMaxLate(delta)
		if err == ErrOverload {
			b1, err := m.LateBound(1)
			return err == nil && b1 > delta
		}
		if err != nil {
			return false
		}
		bAt, err := m.LateBound(n)
		if err != nil || bAt > delta {
			return false
		}
		bNext, err := m.LateBound(n + 1)
		if err != nil || bNext <= delta {
			return false
		}
		bg, err := m.GlitchBound(n)
		if err != nil || bg > bAt+1e-12 || bg < 0 {
			return false
		}
		return bAt >= 0 && bAt <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: p_error is nonincreasing in the tolerated glitch count g and
// nondecreasing in N.
func TestStreamErrorMonotonicity(t *testing.T) {
	m := paperMultiZoneModel(t)
	prevG := 2.0
	for _, g := range []int{6, 9, 12, 18, 24} {
		p, err := m.StreamErrorBound(28, 1200, g)
		if err != nil {
			t.Fatal(err)
		}
		if p > prevG+1e-12 {
			t.Errorf("g=%d: p_error %v above previous %v", g, p, prevG)
		}
		prevG = p
	}
	prevN := 0.0
	for _, n := range []int{26, 27, 28, 29, 30} {
		p, err := m.StreamErrorBound(n, 1200, 12)
		if err != nil {
			t.Fatal(err)
		}
		if p < prevN-1e-12 {
			t.Errorf("N=%d: p_error %v below previous %v", n, p, prevN)
		}
		prevN = p
	}
}

// Property: b_late, b_glitch, and p_error are non-decreasing in n over the
// full admissible search range. This is the invariant that makes the first
// violation the N_max walk meets the binding k.
func TestBoundsNonDecreasingInN(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(testing.TB) *Model
	}{
		{"multizone", paperMultiZoneModel},
		{"singlezone", paperSingleZoneModel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mk(t)
			limit := m.maxSearchN
			var prevLate, prevGlitch, prevErr float64
			for n := 1; n <= limit; n++ {
				late, err := m.LateBound(n)
				if err != nil {
					t.Fatal(err)
				}
				glitch, err := m.GlitchBound(n)
				if err != nil {
					t.Fatal(err)
				}
				perr, err := m.StreamErrorBound(n, 1200, 12)
				if err != nil {
					t.Fatal(err)
				}
				if late < prevLate-1e-12 {
					t.Fatalf("n=%d: b_late %v below predecessor %v", n, late, prevLate)
				}
				if glitch < prevGlitch-1e-12 {
					t.Fatalf("n=%d: b_glitch %v below predecessor %v", n, glitch, prevGlitch)
				}
				if perr < prevErr-1e-12 {
					t.Fatalf("n=%d: p_error %v below predecessor %v", n, perr, prevErr)
				}
				prevLate, prevGlitch, prevErr = late, glitch, perr
			}
		})
	}
}

// admissionTestGrid is the guarantee grid the walk/seed agreement, golden
// and concurrency tests share: per-round thresholds plus paper-scale
// per-stream guarantees (M=1200) at several tolerated glitch counts.
func admissionTestGrid() []Guarantee {
	return []Guarantee{
		{Threshold: 1e-4},
		{Threshold: 1e-3},
		{Threshold: 0.01},
		{Threshold: 0.05},
		{Threshold: 0.2},
		{Rounds: 1200, Glitches: 6, Threshold: 0.001},
		{Rounds: 1200, Glitches: 6, Threshold: 0.05},
		{Rounds: 1200, Glitches: 12, Threshold: 1e-4},
		{Rounds: 1200, Glitches: 12, Threshold: 0.01},
		{Rounds: 1200, Glitches: 24, Threshold: 0.01},
		{Rounds: 1200, Glitches: 24, Threshold: 0.1},
	}
}

// Property: the walk agrees with the seed's own linear scan (cold solves
// and all) on every guarantee of the grid, on both disk profiles.
func TestWalkMatchesSeedScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		geom *disk.Geometry
	}{
		{"viking", disk.QuantumViking21()},
		{"synthetic2000", disk.Synthetic2000()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{Disk: tc.geom, Sizes: workload.PaperSizes(), RoundLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range admissionTestGrid() {
				fast, errFast := m.NMaxFor(g)
				slow, errSlow := m.SeedNMaxFor(g)
				if (errFast == nil) != (errSlow == nil) || (errFast != nil && errFast != errSlow) {
					t.Fatalf("%v: walk err %v, seed scan err %v", g, errFast, errSlow)
				}
				if fast != slow {
					t.Errorf("%v: walk N_max %d, seed scan %d", g, fast, slow)
				}
			}
		})
	}
}

// Property: the table build returns the seed's linear-scan table entry
// for entry over the benchmark grid, so the
// seed-vs-fast benchmarks race two routes to the same answer.
func TestBuildTableMatchesSeed(t *testing.T) {
	grid := benchGrid()
	fast, err := BuildTable(paperModel(t), grid)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedBuildTable(paperModel(t), grid)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fast.Entries(), seed.Entries()) {
		t.Errorf("BuildTable %v, SeedBuildTable %v", fast.Entries(), seed.Entries())
	}
}

// Property: a CBR workload (zero variance) admits more streams than a VBR
// workload with the same mean — variability costs capacity.
func TestVariabilityCostsAdmission(t *testing.T) {
	g := disk.QuantumViking21()
	cbr, err := workload.FixedSizes(200 * workload.KB)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := New(Config{Disk: g, Sizes: cbr, RoundLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	nCBR, err := mc.NMaxLate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := New(Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	nVBR, err := mv.NMaxLate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(nCBR > nVBR) {
		t.Errorf("CBR admits %d, VBR %d: variability should cost capacity", nCBR, nVBR)
	}
}
