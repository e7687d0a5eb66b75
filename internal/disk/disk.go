// Package disk models multi-zone disk drives: zone geometry with
// per-zone track capacities and transfer rates, the two-regime seek-time
// curve of Ruemmler–Wilkes [RW94], byte-address to (zone, cylinder)
// mapping under uniform data placement, the Oyang worst-case SCAN seek
// bound [Oya95], and the transfer-rate distribution induced by zoning
// (§3.2 of the paper, eq. 3.2.1–3.2.6).
//
// The same geometry drives both the analytic model (internal/model) and
// the detailed simulator (internal/sim), so model-vs-simulation
// comparisons exercise exactly the same hardware description.
package disk

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrGeometry is returned for invalid disk geometries.
var ErrGeometry = errors.New("disk: invalid geometry")

// Zone is a group of adjacent cylinders that share a track capacity. Zones
// are ordered innermost first; outer zones hold more sectors per track and
// therefore transfer faster at constant angular velocity.
type Zone struct {
	// Tracks is the number of cylinders in the zone (one track per
	// cylinder in this model; multiple surfaces fold into TrackCapacity).
	Tracks int
	// TrackCapacity is the usable bytes per track.
	TrackCapacity float64
}

// SeekCurve is the two-regime seek-time function of [RW94] used by the
// paper (Table 1): proportional to sqrt(distance) for short seeks and
// linear beyond a threshold distance (both in cylinders):
//
//	seek(d) = A1 + B1·√d   for 0 < d < Threshold
//	seek(d) = A2 + B2·d    for d ≥ Threshold
//	seek(0) = 0
type SeekCurve struct {
	A1, B1    float64
	A2, B2    float64
	Threshold float64
}

// Time returns the seek time in seconds for a distance of d cylinders.
func (c SeekCurve) Time(d float64) float64 {
	if d <= 0 {
		return 0
	}
	if d < c.Threshold {
		return c.A1 + c.B1*math.Sqrt(d)
	}
	return c.A2 + c.B2*d
}

// MaxTime returns the full-stroke seek time for a disk with cyl cylinders.
func (c SeekCurve) MaxTime(cyl int) float64 {
	return c.Time(float64(cyl - 1))
}

// Geometry describes one disk drive.
type Geometry struct {
	// Name identifies the profile (e.g. "Quantum Viking 2.1").
	Name string
	// RotationTime is the time for one revolution, in seconds (ROT).
	RotationTime float64
	// Zones lists the zones from innermost (index 0) to outermost.
	// Cylinders are numbered starting at 0 in the innermost zone.
	Zones []Zone
	// Seek is the seek-time curve.
	Seek SeekCurve

	cumBytes []float64 // cumulative capacity at the end of each zone
	cumCyl   []int     // cumulative cylinder count at the end of each zone
	// guide splits the capacity into guidePerZone·Z equal byte buckets and
	// holds, per bucket, the zone of its first byte: where Locate starts
	// its zone search (an indexed inverse-CDF lookup [Devroye 1986,
	// §III.2.4]), so a lookup steps over about one zone boundary instead of
	// scanning from zone 0.
	guide      []int32
	guideScale float64 // buckets per byte: len(guide)/Capacity
}

// guidePerZone is the number of guide buckets per zone.
const guidePerZone = 8

// New validates and finalizes a geometry (computing the internal cumulative
// maps used by address translation).
func New(name string, rot float64, zones []Zone, seek SeekCurve) (*Geometry, error) {
	if !(rot > 0) || len(zones) == 0 {
		return nil, ErrGeometry
	}
	g := &Geometry{Name: name, RotationTime: rot, Zones: append([]Zone(nil), zones...), Seek: seek}
	g.cumBytes = make([]float64, len(zones))
	g.cumCyl = make([]int, len(zones))
	var bytes float64
	var cyl int
	for i, z := range zones {
		if z.Tracks <= 0 || !(z.TrackCapacity > 0) {
			return nil, ErrGeometry
		}
		if i > 0 && z.TrackCapacity < zones[i-1].TrackCapacity {
			return nil, fmt.Errorf("%w: zone capacities must be nondecreasing outward", ErrGeometry)
		}
		bytes += float64(z.Tracks) * z.TrackCapacity
		cyl += z.Tracks
		g.cumBytes[i] = bytes
		g.cumCyl[i] = cyl
	}
	if math.IsInf(bytes, 1) {
		return nil, fmt.Errorf("%w: capacity overflows a float64", ErrGeometry)
	}
	g.guide = make([]int32, guidePerZone*len(zones))
	g.guideScale = float64(len(g.guide)) / bytes
	zone := 0
	for b := range g.guide {
		first := float64(b) * bytes / float64(len(g.guide))
		for first >= g.cumBytes[zone] {
			zone++
		}
		g.guide[b] = int32(zone)
	}
	return g, nil
}

// Cylinders returns the total number of cylinders (CYL): 0 for a Geometry
// New did not build (the zero value, a struct literal), which has no
// address map.
func (g *Geometry) Cylinders() int {
	if len(g.cumCyl) == 0 {
		return 0
	}
	return g.cumCyl[len(g.cumCyl)-1]
}

// Capacity returns the total usable capacity in bytes.
func (g *Geometry) Capacity() float64 { return g.cumBytes[len(g.cumBytes)-1] }

// ZoneCount returns the number of zones (Z).
func (g *Geometry) ZoneCount() int { return len(g.Zones) }

// TransferRate returns the sustained transfer rate of zone i (bytes/second):
// R_i = C_i / ROT (eq. 3.2.3's discrete form).
func (g *Geometry) TransferRate(zone int) float64 {
	return g.Zones[zone].TrackCapacity / g.RotationTime
}

// MinRate returns the innermost-zone transfer rate (the floor every
// admitted stream's bandwidth must stay below, §2.2).
func (g *Geometry) MinRate() float64 { return g.TransferRate(0) }

// MaxRate returns the outermost-zone transfer rate.
func (g *Geometry) MaxRate() float64 { return g.TransferRate(len(g.Zones) - 1) }

// MeanTrackCapacity returns the average track capacity across cylinders.
func (g *Geometry) MeanTrackCapacity() float64 {
	return g.Capacity() / float64(g.Cylinders())
}

// ZoneOfCylinder returns the zone index containing the given cylinder.
func (g *Geometry) ZoneOfCylinder(cyl int) int {
	for i, c := range g.cumCyl {
		if cyl < c {
			return i
		}
	}
	return len(g.Zones) - 1
}

// Location is a physical position on the disk.
type Location struct {
	Zone     int
	Cylinder int
}

// Locate maps a byte offset in [0, Capacity) to its zone and cylinder under
// sequential layout from cylinder 0 (innermost) outward. The zone is the
// first whose cumulative bytes exceed the offset; the search starts at the
// guide bucket's zone and steps down, then up, to it, so the result does not
// depend on the table's rounding.
func (g *Geometry) Locate(offset float64) (Location, error) {
	if !(offset >= 0 && offset < g.Capacity()) {
		return Location{}, fmt.Errorf("%w: offset %g outside [0, %g)", ErrGeometry, offset, g.Capacity())
	}
	i := int(g.guide[min(int(offset*g.guideScale), len(g.guide)-1)])
	for i > 0 && offset < g.cumBytes[i-1] {
		i--
	}
	for offset >= g.cumBytes[i] {
		i++
	}
	var prevBytes float64
	var prevCyl int
	if i > 0 {
		prevBytes, prevCyl = g.cumBytes[i-1], g.cumCyl[i-1]
	}
	z := g.Zones[i]
	track := int((offset - prevBytes) / z.TrackCapacity)
	if track >= z.Tracks {
		track = z.Tracks - 1
	}
	return Location{Zone: i, Cylinder: prevCyl + track}, nil
}

// SampleLocation draws a location uniformly over the disk's bytes — the
// paper's placement assumption ("data is uniformly distributed over all
// sectors of the disk", §2.2) under which a request hits zone i with
// probability C_i·tracks_i/Capacity.
func (g *Geometry) SampleLocation(rng *rand.Rand) Location {
	loc, _ := g.Locate(rng.Float64() * g.Capacity())
	return loc
}

// TransferTime returns the time to transfer size bytes from the given zone.
func (g *Geometry) TransferTime(size float64, zone int) float64 {
	return size / g.TransferRate(zone)
}

// SeekBound returns the Oyang [Oya95] upper bound on the total SCAN seek
// time for n requests: the total is maximized at equidistant positions,
// i.e. n+1 seeks of CYL/(n+1) cylinders each. This is the constant SEEK of
// §3.1; the paper notes the bound remains valid for multi-zone disks.
func (g *Geometry) SeekBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	d := float64(g.Cylinders()) / float64(n+1)
	return float64(n+1) * g.Seek.Time(d)
}

// SweepSeekTime returns the total seek time of one SCAN sweep that starts
// with the arm at cylinder `start` and visits the given cylinders in
// ascending order. Positions need not be sorted; the slice is not modified.
func (g *Geometry) SweepSeekTime(start int, cylinders []int) float64 {
	if len(cylinders) == 0 {
		return 0
	}
	sorted := append([]int(nil), cylinders...)
	insertionSort(sorted)
	var total float64
	cur := start
	for _, c := range sorted {
		total += g.Seek.Time(math.Abs(float64(c - cur)))
		cur = c
	}
	return total
}

// insertionSort sorts small int slices in place without pulling in sort for
// the hot simulation path (request counts per round are ~10–50).
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
