package disk

import "math"

// ZoneHitProb returns the probability that a uniformly placed request hits
// zone i: (tracks_i · C_i) / Capacity. For the paper's equal-tracks
// assumption this reduces to C_i / ΣC_j (eq. 3.2.1).
func (g *Geometry) ZoneHitProb(zone int) float64 {
	z := g.Zones[zone]
	return float64(z.Tracks) * z.TrackCapacity / g.Capacity()
}

// InvRateMoments returns E[1/R] and E[1/R²] under the zone-hit
// distribution. These are the only rate functionals the transfer-time
// moment matching needs: for a request of size S independent of its rate,
//
//	E[T_trans]   = E[S]·E[1/R]
//	E[T_trans²]  = E[S²]·E[1/R²]
//
// For equal-track zones E[1/R] collapses to Z·ROT/ΣC_i, i.e. the harmonic
// structure the paper's continuous treatment approximates.
func (g *Geometry) InvRateMoments() (inv, inv2 float64) {
	for i := range g.Zones {
		p := g.ZoneHitProb(i)
		r := g.TransferRate(i)
		inv += p / r
		inv2 += p / (r * r)
	}
	return inv, inv2
}

// ContinuousRatePDF returns the continuous approximation of the
// transfer-rate density used by the paper (eq. 3.2.6, re-derived with the
// typesetting slips fixed): treating the zone index as continuous on
// [1, Z] with linearly increasing capacity, the rate r on
// [rmin, rmax] = [Cmin, Cmax]/ROT has density
//
//	f_rate(r) = 2r / (rmax² − rmin²)
//
// (capacity-proportional selection of a linear capacity profile). The
// exact discrete law converges to this as Z grows; Z=15 is already within
// a fraction of a percent on the moments.
func (g *Geometry) ContinuousRatePDF(r float64) float64 {
	rmin, rmax := g.MinRate(), g.MaxRate()
	if r < rmin || r > rmax || rmax <= rmin {
		return 0
	}
	return 2 * r / (rmax*rmax - rmin*rmin)
}

// ContinuousInvRateMoments returns E[1/R] and E[1/R²] under the continuous
// rate density: E[1/R] = 2(rmax−rmin)/(rmax²−rmin²) = 2/(rmin+rmax) and
// E[1/R²] = 2·ln(rmax/rmin)/(rmax²−rmin²).
func (g *Geometry) ContinuousInvRateMoments() (inv, inv2 float64) {
	rmin, rmax := g.MinRate(), g.MaxRate()
	if rmax <= rmin {
		return 1 / rmin, 1 / (rmin * rmin)
	}
	d2 := rmax*rmax - rmin*rmin
	return 2 / (rmin + rmax), 2 * math.Log(rmax/rmin) / d2
}
