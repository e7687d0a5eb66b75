package trace

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/sweep"
)

// oracleAppend is how a request became a RequestEvent before the recorder
// kept records: every field copied from the kernel's result, and the arm
// travel measured from *arm, the previous request's cylinder, on a served
// disk (a failed one moves no arm). The write path must read back exactly
// this.
func oracleAppend(sp *RoundSpan, arm *int, stream int64, r *sweep.Request, late bool) {
	travel := 0
	if !sp.Down {
		travel = r.Cylinder - *arm
		if travel < 0 {
			travel = -travel
		}
		*arm = r.Cylinder
	}
	sp.Requests = append(sp.Requests, RequestEvent{
		Stream:        stream,
		Cylinder:      r.Cylinder,
		Zone:          r.Zone,
		SeekCylinders: travel,
		Bytes:         r.Size,
		Start:         r.Start,
		Seek:          r.Seek,
		Rotation:      r.Rotation,
		Transfer:      r.Transfer,
		Retries:       r.Retries,
		Late:          late,
		Lost:          r.Lost,
	})
}

// limitDisk is the widest geometry a record addresses: MaxZones zones over
// math.MaxInt32 cylinders, every zone 32 768 tracks wide but the last,
// which takes the remainder.
func limitDisk(t *testing.T) *disk.Geometry {
	t.Helper()
	v := disk.QuantumViking21()
	zones := make([]disk.Zone, MaxZones)
	for i := range zones {
		zones[i] = disk.Zone{Tracks: math.MaxInt32 / MaxZones, TrackCapacity: 1e5 + float64(i)}
	}
	zones[len(zones)-1].Tracks += math.MaxInt32 % MaxZones
	g, err := disk.New("limits", v.RotationTime, zones, v.Seek)
	if err != nil {
		t.Fatal(err)
	}
	if !Addressable(g) || g.Cylinders() != math.MaxInt32 {
		t.Fatalf("limit disk: %d cylinders, %d zones, addressable %v", g.Cylinders(), g.ZoneCount(), Addressable(g))
	}
	return g
}

// randomEffects draws a round's fault effects: a failed disk one time in
// five, otherwise latency and rate scales away from 1 half the time each,
// and read errors with up to fault.MaxRetries retries half the time.
func randomEffects(rng *rand.Rand) fault.Effects {
	eff := fault.Identity()
	if rng.IntN(5) == 0 {
		eff.Failed = true
		return eff
	}
	if rng.IntN(2) == 0 {
		eff.LatencyScale = 1 + 9*rng.Float64()
	}
	if rng.IntN(2) == 0 {
		eff.RateScale = 0.05 + rng.Float64()
	}
	if rng.IntN(2) == 0 {
		eff.ErrorProb, eff.Retries = 0.9, 1+rng.IntN(fault.MaxRetries)
	}
	return eff
}

// limitSweep builds a sweep on g at the limits of the record's narrowed
// fields — cylinders, zones and retries at 0 and at the largest g and a
// fault plan allow as often as in between — and serves it under eff
// through the kernel's per-request arithmetic, sweep.Cursor.Advance, in
// SCAN order, with made-up rotation draws and loss verdicts where
// sweep.Serve would draw them. On a failed disk it leaves the requests as
// sweep.Serve does: in the order given, lost, with no times.
func limitSweep(rng *rand.Rand, g *disk.Geometry, eff fault.Effects) []sweep.Request {
	pick := func(limit int) int {
		switch rng.IntN(3) {
		case 0:
			return 0
		case 1:
			return limit
		}
		return rng.IntN(limit + 1)
	}
	reqs := make([]sweep.Request, rng.IntN(40))
	for i := range reqs {
		reqs[i].Fragment = sweep.Fragment{
			Cylinder: pick(g.Cylinders() - 1),
			Zone:     pick(g.ZoneCount() - 1),
			Size:     rng.Float64() * 1e6,
			Ref:      i,
		}
	}
	if eff.Failed {
		for i := range reqs {
			reqs[i].Lost = true
		}
		return reqs
	}
	slices.SortFunc(reqs, func(a, b sweep.Request) int {
		return cmp.Or(cmp.Compare(a.Cylinder, b.Cylinder), cmp.Compare(a.Ref, b.Ref))
	})
	var cur sweep.Cursor
	for i := range reqs {
		r := &reqs[i]
		r.Drawn = rng.Float64() * g.RotationTime * eff.LatencyScale
		r.Retries = pick(fault.MaxRetries)
		r.Lost = rng.IntN(4) == 0
		cur.Advance(g, eff.LatencyScale, eff.RateScale, r)
	}
	return reqs
}

// servedSweep serves random fragments on g through the kernel itself,
// under random fault effects.
func servedSweep(rng *rand.Rand, g *disk.Geometry) ([]sweep.Request, fault.Effects) {
	eff := randomEffects(rng)
	in := make([]sweep.Fragment, rng.IntN(200))
	for i := range in {
		loc := g.SampleLocation(rng)
		in[i] = sweep.Fragment{Cylinder: loc.Cylinder, Zone: loc.Zone, Size: rng.Float64() * 4e5, Ref: i}
	}
	reqs := make([]sweep.Request, len(in))
	sweep.Serve(g, eff, rng, nil, in, reqs)
	return reqs, eff
}

// TestWritePathRoundTrip: requests written through Span.Append and Record
// read back from Live and Frozen equal, field for field, what the kernel
// wrote — the times the record does not keep, which the replay rebuilds,
// and the arm travel included. Half the sweeps sweep.Serve served on the
// paper's disk under random fault effects (retries up to the cap, lost
// fragments, failed disks, latency and rate scales); the other half sit at
// the limits of every narrowed field on the widest disk a record
// addresses.
func TestWritePathRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 32 {
		t.Fatalf("a record is %d bytes, want 32", got)
	}
	const capacity = 64
	rng := rand.New(rand.NewPCG(1, 2))
	viking, limits := disk.QuantumViking21(), limitDisk(t)
	r := NewRecorder(Config{Spans: capacity})
	var want []RoundSpan
	var w Span // one writer span, refilled after each Record
	for i := 0; i < 3*capacity; i++ {
		var reqs []sweep.Request
		var eff fault.Effects
		g := viking
		if i%2 == 0 {
			g, eff = limits, randomEffects(rng)
			reqs = limitSweep(rng, g, eff)
		} else {
			reqs, eff = servedSweep(rng, g)
		}
		w.Served(g, eff)
		w.Sweep = Sweep{
			Round: i / 4, Disk: i % 4,
			Seek: rng.Float64(), Rotation: rng.Float64(), Transfer: rng.Float64(),
			Busy: rng.Float64(), Observed: rng.Float64(),
			Late: rng.IntN(10), Lost: rng.IntN(10), Retries: rng.IntN(10),
			Faulty: eff.Active(), Down: eff.Failed,
		}
		sp := RoundSpan{
			Seq: uint64(i), Round: w.Round, Disk: w.Disk,
			Seek: w.Seek, Rotation: w.Rotation, Transfer: w.Transfer, Busy: w.Busy, Observed: w.Observed,
			Late: w.Late, Lost: w.Lost, Retries: w.Retries, Faulty: w.Faulty, Down: w.Down,
		}
		arm := 0
		for j := range reqs {
			stream := rng.Int64() - math.MaxInt64/2
			late := !reqs[j].Lost && rng.IntN(3) == 0
			w.Append(stream, &reqs[j], late)
			oracleAppend(&sp, &arm, stream, &reqs[j], late)
		}
		r.Record(&w)
		if len(w.reqs) != 0 {
			t.Fatalf("Record handed back %d records", len(w.reqs))
		}
		want = append(want, sp)
		if i == 2*capacity {
			r.Freeze("test", i)
		}
	}
	check := func(source string, got, want []RoundSpan) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d spans, want %d", source, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: span seq %d differs from the kernel's requests:\n got %+v\nwant %+v", source, want[i].Seq, got[i], want[i])
			}
		}
	}
	check("Live", r.Live(), want[len(want)-capacity:])
	snap, ok := r.Frozen()
	if !ok {
		t.Fatal("no snapshot latched")
	}
	check("Frozen", snap.Spans, want[2*capacity+1-capacity:2*capacity+1])
	for i, h := range r.Sweeps() {
		if sp := want[len(want)-capacity+i]; h.Seq != sp.Seq || h.Requests != len(sp.Requests) {
			t.Fatalf("Sweeps()[%d] = seq %d with %d requests, want seq %d with %d", i, h.Seq, h.Requests, sp.Seq, len(sp.Requests))
		}
	}
}
