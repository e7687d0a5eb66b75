package disk

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mzqos/internal/dist"
)

func viking(t testing.TB) *Geometry {
	t.Helper()
	return QuantumViking21()
}

func TestVikingProfile(t *testing.T) {
	g := viking(t)
	if g.Cylinders() != 6720 {
		t.Errorf("Cylinders = %d, want 6720", g.Cylinders())
	}
	if g.ZoneCount() != 15 {
		t.Errorf("ZoneCount = %d, want 15", g.ZoneCount())
	}
	if g.Zones[0].TrackCapacity != 58368 {
		t.Errorf("innermost capacity = %v, want 58368", g.Zones[0].TrackCapacity)
	}
	if g.Zones[14].TrackCapacity != 95744 {
		t.Errorf("outermost capacity = %v, want 95744", g.Zones[14].TrackCapacity)
	}
	// Mean track capacity is (Cmin+Cmax)/2 for a linear profile.
	if math.Abs(g.MeanTrackCapacity()-77056) > 1e-6 {
		t.Errorf("MeanTrackCapacity = %v, want 77056", g.MeanTrackCapacity())
	}
	// Rate ratio outer/inner ≈ 1.64 for this drive (paper: "factor of two"
	// is typical; Table 1 gives 95744/58368).
	ratio := g.MaxRate() / g.MinRate()
	if math.Abs(ratio-95744.0/58368.0) > 1e-12 {
		t.Errorf("rate ratio = %v", ratio)
	}
}

func TestSeekCurveValues(t *testing.T) {
	g := viking(t)
	// Full-stroke seek ≈ 18 ms (the paper's Tseek^max in §4).
	if max := g.Seek.MaxTime(g.Cylinders()); math.Abs(max-0.018) > 3e-4 {
		t.Errorf("MaxTime = %v, want ≈0.018", max)
	}
	if g.Seek.Time(0) != 0 {
		t.Error("seek(0) should be 0")
	}
	// Continuity check near the regime threshold d=1344:
	below := g.Seek.Time(1343.999)
	above := g.Seek.Time(1344)
	if math.Abs(below-above) > 1e-4 {
		t.Errorf("seek curve jumps at threshold: %v vs %v", below, above)
	}
}

func TestSeekBoundPaperValue(t *testing.T) {
	g := viking(t)
	// §3.1: for N=27 the Oyang bound gives SEEK = 0.10932 s.
	if s := g.SeekBound(27); math.Abs(s-0.10932) > 2e-5 {
		t.Errorf("SeekBound(27) = %v, want 0.10932", s)
	}
	if g.SeekBound(0) != 0 {
		t.Error("SeekBound(0) should be 0")
	}
}

func TestSeekBoundDominatesSweeps(t *testing.T) {
	// Property (Oyang): the bound dominates the seek total of any actual
	// SCAN sweep over n positions starting from cylinder 0.
	g := QuantumViking21()
	rng := dist.NewRand(11, 13)
	prop := func(nRaw int, seed uint64) bool {
		n := 1 + abs(nRaw)%50
		r := dist.NewRand(seed, seed^0x9e3779b97f4a7c15)
		cyls := make([]int, n)
		for i := range cyls {
			cyls[i] = r.IntN(g.Cylinders())
		}
		return g.SweepSeekTime(0, cyls) <= g.SeekBound(n)+1e-12
	}
	_ = rng
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSweepSeekTimeOrderInvariance(t *testing.T) {
	g := viking(t)
	cyls := []int{5000, 100, 3000, 100, 6000}
	a := g.SweepSeekTime(0, cyls)
	b := g.SweepSeekTime(0, []int{100, 100, 3000, 5000, 6000})
	if math.Abs(a-b) > 1e-15 {
		t.Errorf("sweep time depends on input order: %v vs %v", a, b)
	}
	if g.SweepSeekTime(0, nil) != 0 {
		t.Error("empty sweep should cost 0")
	}
	// Input slice must not be mutated.
	if cyls[0] != 5000 {
		t.Error("SweepSeekTime mutated its input")
	}
}

func TestLocateRoundTrip(t *testing.T) {
	g := viking(t)
	// Offsets at zone boundaries map to the right zones.
	loc, err := g.Locate(0)
	if err != nil || loc.Zone != 0 || loc.Cylinder != 0 {
		t.Errorf("Locate(0) = %+v, %v", loc, err)
	}
	// Last byte.
	loc, err = g.Locate(g.Capacity() - 1)
	if err != nil || loc.Zone != 14 || loc.Cylinder != 6719 {
		t.Errorf("Locate(last) = %+v, %v", loc, err)
	}
	// Out of range.
	if _, err := g.Locate(-1); err == nil {
		t.Error("Locate(-1) should error")
	}
	if _, err := g.Locate(g.Capacity()); err == nil {
		t.Error("Locate(capacity) should error")
	}
	// NaN fails every comparison, so only a range check written as
	// "inside" refuses it; −0 is the first byte.
	for _, off := range []float64{math.NaN(), math.Inf(1)} {
		if loc, err := g.Locate(off); !errors.Is(err, ErrGeometry) {
			t.Errorf("Locate(%v) = %+v, %v; want ErrGeometry", off, loc, err)
		}
	}
	loc, err = g.Locate(math.Copysign(0, -1))
	if err != nil || loc.Zone != 0 || loc.Cylinder != 0 {
		t.Errorf("Locate(-0) = %+v, %v", loc, err)
	}
}

func TestLocateZoneConsistency(t *testing.T) {
	g := viking(t)
	prop := func(u float64) bool {
		off := math.Abs(math.Mod(u, 1)) * (g.Capacity() - 1)
		loc, err := g.Locate(off)
		if err != nil {
			return false
		}
		return g.ZoneOfCylinder(loc.Cylinder) == loc.Zone &&
			loc.Cylinder >= 0 && loc.Cylinder < g.Cylinders()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSampleLocationZoneFrequencies(t *testing.T) {
	g := viking(t)
	rng := dist.NewRand(21, 22)
	counts := make([]int, g.ZoneCount())
	const n = 300000
	for i := 0; i < n; i++ {
		counts[g.SampleLocation(rng).Zone]++
	}
	for z := range counts {
		want := g.ZoneHitProb(z)
		got := float64(counts[z]) / n
		if math.Abs(got-want) > 0.004 {
			t.Errorf("zone %d hit freq = %v, want %v", z, got, want)
		}
	}
}

func TestZoneHitProbSumsToOne(t *testing.T) {
	g := viking(t)
	var sum float64
	for i := range g.Zones {
		sum += g.ZoneHitProb(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("zone hit probs sum to %v", sum)
	}
}

func TestInvRateMomentsAgainstSampling(t *testing.T) {
	g := viking(t)
	inv, inv2 := g.InvRateMoments()
	rng := dist.NewRand(31, 32)
	var w1, w2 dist.Welford
	for i := 0; i < 200000; i++ {
		r := g.TransferRate(g.SampleLocation(rng).Zone)
		w1.Add(1 / r)
		w2.Add(1 / (r * r))
	}
	if math.Abs(w1.Mean()-inv) > 0.002*inv {
		t.Errorf("E[1/R] = %v, sampled %v", inv, w1.Mean())
	}
	if math.Abs(w2.Mean()-inv2) > 0.004*inv2 {
		t.Errorf("E[1/R²] = %v, sampled %v", inv2, w2.Mean())
	}
}

func TestContinuousRateApproximation(t *testing.T) {
	g := viking(t)
	// The continuous density integrates to 1.
	var sum float64
	rmin, rmax := g.MinRate(), g.MaxRate()
	n := 10000
	dr := (rmax - rmin) / float64(n)
	for i := 0; i < n; i++ {
		sum += g.ContinuousRatePDF(rmin+(float64(i)+0.5)*dr) * dr
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("continuous rate PDF integrates to %v", sum)
	}
	// Discrete and continuous inverse-rate moments agree closely at Z=15.
	di, di2 := g.InvRateMoments()
	ci, ci2 := g.ContinuousInvRateMoments()
	if math.Abs(di-ci) > 0.01*di {
		t.Errorf("E[1/R]: discrete %v vs continuous %v", di, ci)
	}
	if math.Abs(di2-ci2) > 0.02*di2 {
		t.Errorf("E[1/R²]: discrete %v vs continuous %v", di2, ci2)
	}
}

func TestSynthetic2000Profile(t *testing.T) {
	g := Synthetic2000()
	if g.Cylinders() != 12000 || g.ZoneCount() != 24 {
		t.Errorf("geometry: %d cylinders, %d zones", g.Cylinders(), g.ZoneCount())
	}
	if r := g.MaxRate() / g.MinRate(); math.Abs(r-2) > 1e-12 {
		t.Errorf("outer/inner rate ratio = %v, want 2", r)
	}
	// A 2000-class drive is strictly faster than the Viking everywhere.
	v := QuantumViking21()
	if !(g.MinRate() > v.MaxRate()) {
		t.Errorf("Synthetic2000 min rate %v not above Viking max %v", g.MinRate(), v.MaxRate())
	}
	if !(g.Seek.MaxTime(g.Cylinders()) < v.Seek.MaxTime(v.Cylinders())) {
		t.Error("Synthetic2000 full-stroke seek should be faster")
	}
	// The Oyang bound still dominates sweeps on the new profile.
	r := dist.NewRand(2, 3)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(40)
		cyls := make([]int, n)
		for i := range cyls {
			cyls[i] = r.IntN(g.Cylinders())
		}
		if g.SweepSeekTime(0, cyls) > g.SeekBound(n)+1e-12 {
			t.Fatalf("sweep exceeded Oyang bound at n=%d", n)
		}
	}
}

func TestSingleZoneAndUniformized(t *testing.T) {
	g := viking(t)
	u := g.Uniformized()
	if u.ZoneCount() != 1 {
		t.Errorf("Uniformized zones = %d", u.ZoneCount())
	}
	if u.Cylinders() != g.Cylinders() {
		t.Errorf("Uniformized cylinders = %d", u.Cylinders())
	}
	if math.Abs(u.Capacity()-g.Capacity()) > 1 {
		t.Errorf("Uniformized capacity = %v, want %v", u.Capacity(), g.Capacity())
	}
	inv, inv2 := u.InvRateMoments()
	r := u.MinRate()
	if math.Abs(inv-1/r) > 1e-18 || math.Abs(inv2-1/(r*r)) > 1e-25 {
		t.Error("single-zone inverse moments wrong")
	}
}

func TestScaled(t *testing.T) {
	g := viking(t)
	s, err := g.Scaled("2x", 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Capacity()-2*g.Capacity()) > 1 {
		t.Errorf("Scaled capacity = %v", s.Capacity())
	}
	if math.Abs(s.MinRate()-2*g.MinRate()) > 1e-9 {
		t.Errorf("Scaled min rate = %v", s.MinRate())
	}
	if _, err := g.Scaled("bad", 0); err == nil {
		t.Error("Scaled(0) should error")
	}
}

func TestNewValidation(t *testing.T) {
	seek := SeekCurve{A1: 1e-3, B1: 1e-4, A2: 2e-3, B2: 1e-6, Threshold: 100}
	if _, err := New("x", 0, []Zone{{Tracks: 1, TrackCapacity: 1}}, seek); err == nil {
		t.Error("zero rotation should error")
	}
	if _, err := New("x", 0.008, nil, seek); err == nil {
		t.Error("no zones should error")
	}
	if _, err := New("x", 0.008, []Zone{{Tracks: 0, TrackCapacity: 1}}, seek); err == nil {
		t.Error("zero tracks should error")
	}
	if _, err := New("x", 0.008, []Zone{
		{Tracks: 10, TrackCapacity: 200},
		{Tracks: 10, TrackCapacity: 100},
	}, seek); err == nil {
		t.Error("decreasing capacities outward should error")
	}
	// A capacity past the largest float64 has no byte address to split
	// into guide buckets.
	for _, z := range []Zone{{Tracks: 1, TrackCapacity: math.Inf(1)}, {Tracks: 1 << 62, TrackCapacity: 1e300}} {
		if _, err := New("x", 0.008, []Zone{z}, seek); !errors.Is(err, ErrGeometry) {
			t.Errorf("zone %+v: New err = %v, want ErrGeometry", z, err)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
