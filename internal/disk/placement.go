package disk

import (
	"math"
	"math/rand/v2"
)

// AccessProfile gives the probability that a request hits each zone. The
// paper's base assumption — data uniformly distributed over all sectors —
// is the capacity-weighted profile; §2.2 points to frequency-aware layouts
// (generalized organ-pipe placement [Won83, TKKD96, TCG96b], hot data on
// fast zones [GKS96]) as future work, which these profiles model: the
// admission model and simulator both accept a profile in place of the
// uniform default.
type AccessProfile []float64

// Valid reports whether the profile matches the geometry and is a
// probability vector.
func (p AccessProfile) Valid(g *Geometry) bool {
	if len(p) != g.ZoneCount() {
		return false
	}
	var sum float64
	for _, w := range p {
		if !(w >= 0) || math.IsInf(w, 1) {
			return false
		}
		sum += w
	}
	return math.Abs(sum-1) < 1e-9
}

// UniformAccess returns the capacity-weighted profile — the paper's
// uniform-over-sectors placement (eq. 3.2.1).
func UniformAccess(g *Geometry) AccessProfile {
	p := make(AccessProfile, g.ZoneCount())
	for i := range p {
		p[i] = g.ZoneHitProb(i)
	}
	return p
}

// SkewedAccess returns a profile with access probability proportional to
// capacityShare · rate^skew: positive skew models hot data placed on the
// fast outer zones (the [GKS96] idea), negative skew the pathological
// inverse. skew = 0 reproduces UniformAccess.
func SkewedAccess(g *Geometry, skew float64) AccessProfile {
	p := make(AccessProfile, g.ZoneCount())
	var sum float64
	for i := range p {
		w := g.ZoneHitProb(i) * math.Pow(g.TransferRate(i)/g.MinRate(), skew)
		p[i] = w
		sum += w
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// OrganPipeAccess returns a generalized organ-pipe profile: access
// frequency peaks at the zone whose centre cylinder is at fraction
// center01 of the disk (0 = innermost edge, 1 = outermost) and decays
// geometrically with the cylinder distance, with decay rate per full disk
// width given by concentration (larger = more concentrated). The paper
// cites the optimum as "somewhere between the middle and the outermost
// track" — a trade between short seeks and high transfer rates.
func OrganPipeAccess(g *Geometry, center01, concentration float64) AccessProfile {
	if center01 < 0 {
		center01 = 0
	}
	if center01 > 1 {
		center01 = 1
	}
	if concentration < 0 {
		concentration = 0
	}
	cyl := float64(g.Cylinders())
	center := center01 * cyl
	p := make(AccessProfile, g.ZoneCount())
	var sum float64
	var first float64
	for i, z := range g.Zones {
		mid := first + float64(z.Tracks)/2
		first += float64(z.Tracks)
		dist := math.Abs(mid-center) / cyl
		w := g.ZoneHitProb(i) * math.Exp(-concentration*dist)
		p[i] = w
		sum += w
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// InvRateMomentsUnder returns E[1/R] and E[1/R²] under the given access
// profile — the only change zone-aware placement makes to the transfer
// moment pipeline.
func (g *Geometry) InvRateMomentsUnder(p AccessProfile) (inv, inv2 float64) {
	for i := range g.Zones {
		r := g.TransferRate(i)
		inv += p[i] / r
		inv2 += p[i] / (r * r)
	}
	return inv, inv2
}

// SampleLocationUnder draws a location with the zone chosen by the access
// profile and the track uniform within the zone.
func (g *Geometry) SampleLocationUnder(p AccessProfile, rng *rand.Rand) Location {
	u := rng.Float64()
	var acc float64
	zone := len(p) - 1
	for i, w := range p {
		acc += w
		if u < acc {
			zone = i
			break
		}
	}
	var firstCyl int
	if zone > 0 {
		firstCyl = g.cumCyl[zone-1]
	}
	return Location{Zone: zone, Cylinder: firstCyl + rng.IntN(g.Zones[zone].Tracks)}
}
