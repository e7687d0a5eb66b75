package disk_test

import (
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/fault"
)

// linearLocate is the reference address translation: a scan of the zones
// from the innermost outward that stops at the first zone ending past the
// offset. Locate must agree with it bit for bit.
func linearLocate(g *disk.Geometry, offset float64) (disk.Location, bool) {
	cumBytes, cumCyl := g.AddressMap()
	if offset < 0 || offset >= cumBytes[len(cumBytes)-1] {
		return disk.Location{}, false
	}
	var prevBytes float64
	var prevCyl int
	for i, z := range g.Zones {
		if offset < cumBytes[i] {
			track := int((offset - prevBytes) / z.TrackCapacity)
			if track >= z.Tracks {
				track = z.Tracks - 1
			}
			return disk.Location{Zone: i, Cylinder: prevCyl + track}, true
		}
		prevBytes = cumBytes[i]
		prevCyl = cumCyl[i]
	}
	return disk.Location{Zone: len(g.Zones) - 1, Cylinder: g.Cylinders() - 1}, true
}

// locateGeometries are the address maps the reference is checked on: the
// two profiles, a rate-degraded Viking (capacities off the round grid), one
// zone, a one-track zone between wide ones, two equal zones whose boundary
// is a guide bucket's first byte while the float just below it scales into
// that bucket, and a map whose cumulative bytes repeat because float
// addition absorbs a one-byte zone.
func locateGeometries(t *testing.T) map[string]*disk.Geometry {
	t.Helper()
	v := disk.QuantumViking21()
	degraded, err := fault.DegradeGeometry(v, fault.Effects{LatencyScale: 1, RateScale: 0.37})
	if err != nil {
		t.Fatal(err)
	}
	one, err := disk.SingleZone("one zone", 3000, 0.008, 70000, v.Seek)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := disk.New("narrow middle", 0.008, []disk.Zone{
		{Tracks: 1000, TrackCapacity: 50000},
		{Tracks: 1, TrackCapacity: 60000},
		{Tracks: 1000, TrackCapacity: 70000},
	}, v.Seek)
	if err != nil {
		t.Fatal(err)
	}
	halves, err := disk.New("equal halves", 0.008, []disk.Zone{
		{Tracks: 33, TrackCapacity: 58368},
		{Tracks: 33, TrackCapacity: 58368},
	}, v.Seek)
	if err != nil {
		t.Fatal(err)
	}
	absorbed, err := disk.New("absorbed zone", 0.008, []disk.Zone{
		{Tracks: 1 << 53, TrackCapacity: 1},
		{Tracks: 1, TrackCapacity: 1},
		{Tracks: 1 << 53, TrackCapacity: 2},
	}, v.Seek)
	if err != nil {
		t.Fatal(err)
	}
	if cb, _ := absorbed.AddressMap(); cb[0] != cb[1] {
		t.Fatalf("absorbed zone: cumulative bytes %v do not repeat", cb)
	}
	return map[string]*disk.Geometry{
		"viking":        v,
		"synthetic2000": disk.Synthetic2000(),
		"degraded":      degraded,
		"one zone":      one,
		"narrow middle": narrow,
		"equal halves":  halves,
		"absorbed zone": absorbed,
	}
}

// TestLocateMatchesLinearScan: Locate returns the reference scan's
// location, or its refusal, at 0, at every zone boundary and its float
// neighbours on both sides, just below the capacity and at 10⁵ seeded
// uniform offsets; and SampleLocation is the reference scan applied to the
// same uniform draw.
func TestLocateMatchesLinearScan(t *testing.T) {
	for name, g := range locateGeometries(t) {
		cumBytes, _ := g.AddressMap()
		offsets := []float64{0, math.Nextafter(g.Capacity(), 0)}
		for _, b := range cumBytes {
			offsets = append(offsets, math.Nextafter(b, 0), b, math.Nextafter(b, math.Inf(1)))
		}
		rng := dist.NewRand(50, 51)
		for i := 0; i < 100000; i++ {
			offsets = append(offsets, rng.Float64()*g.Capacity())
		}
		for _, off := range offsets {
			want, ok := linearLocate(g, off)
			got, err := g.Locate(off)
			if (err == nil) != ok || got != want {
				t.Fatalf("%s: Locate(%v) = %+v, %v; linear scan %+v, ok %v", name, off, got, err, want, ok)
			}
		}

		a, b := dist.NewRand(52, 53), dist.NewRand(52, 53)
		for i := 0; i < 100000; i++ {
			got := g.SampleLocation(a)
			want, _ := linearLocate(g, b.Float64()*g.Capacity())
			if got != want {
				t.Fatalf("%s: draw %d: SampleLocation = %+v, linear scan %+v", name, i, got, want)
			}
		}
	}
}
