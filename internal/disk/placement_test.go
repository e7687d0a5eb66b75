package disk

import (
	"math"
	"testing"
	"testing/quick"

	"mzqos/internal/dist"
)

func TestUniformAccessMatchesZoneHitProb(t *testing.T) {
	g := QuantumViking21()
	p := UniformAccess(g)
	if !p.Valid(g) {
		t.Fatal("uniform profile invalid")
	}
	for i := range p {
		if math.Abs(p[i]-g.ZoneHitProb(i)) > 1e-12 {
			t.Errorf("zone %d: %v != %v", i, p[i], g.ZoneHitProb(i))
		}
	}
	inv, inv2 := g.InvRateMomentsUnder(p)
	di, di2 := g.InvRateMoments()
	if math.Abs(inv-di) > 1e-15 || math.Abs(inv2-di2) > 1e-20 {
		t.Error("uniform profile moments differ from base moments")
	}
}

func TestSkewedAccessShiftsRates(t *testing.T) {
	g := QuantumViking21()
	hot := SkewedAccess(g, 3)   // hot data on outer, fast zones
	cold := SkewedAccess(g, -3) // inverse
	zero := SkewedAccess(g, 0)
	if !hot.Valid(g) || !cold.Valid(g) || !zero.Valid(g) {
		t.Fatal("skewed profiles invalid")
	}
	invHot, _ := g.InvRateMomentsUnder(hot)
	invCold, _ := g.InvRateMomentsUnder(cold)
	invUni, _ := g.InvRateMomentsUnder(zero)
	// Faster effective service when hot data sits on fast zones.
	if !(invHot < invUni && invUni < invCold) {
		t.Errorf("E[1/R] ordering wrong: hot %v, uniform %v, cold %v", invHot, invUni, invCold)
	}
	// Zero skew equals uniform.
	for i := range zero {
		if math.Abs(zero[i]-UniformAccess(g)[i]) > 1e-12 {
			t.Errorf("zero skew differs from uniform at zone %d", i)
		}
	}
}

func TestOrganPipeAccess(t *testing.T) {
	g := QuantumViking21()
	// Concentration at 3/4 of the disk (between middle and outermost, as
	// the paper prescribes).
	p := OrganPipeAccess(g, 0.75, 8)
	if !p.Valid(g) {
		t.Fatal("organ-pipe profile invalid")
	}
	// Mean and variance of the accessed cylinder, normalized to [0,1].
	momentsOf := func(pr AccessProfile) (mean, variance float64) {
		var first, second float64
		for i, z := range g.Zones {
			mid := (first + float64(z.Tracks)/2) / float64(g.Cylinders())
			first += float64(z.Tracks)
			mean += pr[i] * mid
			second += pr[i] * mid * mid
		}
		return mean, second - mean*mean
	}
	center, tight := momentsOf(p)
	if math.Abs(center-0.75) > 0.12 {
		t.Errorf("mean access position = %v, want near 0.75", center)
	}
	// More concentrated profiles pull the mass tighter around the peak.
	if _, loose := momentsOf(OrganPipeAccess(g, 0.75, 1)); !(tight < loose) {
		t.Errorf("concentration did not tighten the profile: %v vs %v", tight, loose)
	}
	// Degenerate inputs are clamped rather than erroring.
	if !OrganPipeAccess(g, -1, -1).Valid(g) {
		t.Error("clamped organ-pipe profile invalid")
	}
}

func TestSampleLocationUnderFrequencies(t *testing.T) {
	g := QuantumViking21()
	p := SkewedAccess(g, 2)
	rng := dist.NewRand(8, 9)
	counts := make([]int, g.ZoneCount())
	const n = 200000
	for i := 0; i < n; i++ {
		loc := g.SampleLocationUnder(p, rng)
		counts[loc.Zone]++
		if g.ZoneOfCylinder(loc.Cylinder) != loc.Zone {
			t.Fatalf("cylinder %d not in zone %d", loc.Cylinder, loc.Zone)
		}
	}
	for z := range counts {
		got := float64(counts[z]) / n
		if math.Abs(got-p[z]) > 0.005 {
			t.Errorf("zone %d frequency %v, want %v", z, got, p[z])
		}
	}
}

func TestAccessProfileValid(t *testing.T) {
	g := QuantumViking21()
	if (AccessProfile{0.5, 0.5}).Valid(g) {
		t.Error("wrong length should be invalid")
	}
	bad := make(AccessProfile, g.ZoneCount())
	bad[0] = 2
	if bad.Valid(g) {
		t.Error("non-normalized profile should be invalid")
	}
	neg := UniformAccess(g)
	neg[0] = -neg[0]
	if neg.Valid(g) {
		t.Error("negative weight should be invalid")
	}
}

// Property: every generated profile is a valid probability vector.
func TestGeneratedProfilesValid(t *testing.T) {
	g := QuantumViking21()
	prop := func(s, c, pos float64) bool {
		skew := math.Mod(s, 6)
		conc := math.Abs(math.Mod(c, 20))
		center := math.Abs(math.Mod(pos, 1))
		return SkewedAccess(g, skew).Valid(g) &&
			OrganPipeAccess(g, center, conc).Valid(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
