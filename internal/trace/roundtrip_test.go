package trace

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/sweep"
)

// oracleAppend is how a request became a RequestEvent before the recorder
// kept records: every field copied from the kernel's result, the arm
// travel included. The write path must read back exactly this.
func oracleAppend(sp *RoundSpan, stream int64, r *sweep.Request, late bool) {
	sp.Requests = append(sp.Requests, RequestEvent{
		Stream:        stream,
		Cylinder:      r.Cylinder,
		Zone:          r.Zone,
		SeekCylinders: r.SeekCylinders,
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

// randomSweep draws one sweep's requests in the order sweep.Serve writes
// them: on a served disk ascending cylinders, each request's arm travel
// measured from the previous one (from cylinder 0 for the first); on a
// failed disk (down) any order, every request lost with no travel, no
// times and no retries. Cylinders, zones and retries are drawn at their
// limits as often as in between.
func randomSweep(rng *rand.Rand, down bool) []sweep.Request {
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
			Cylinder: pick(math.MaxInt32),
			Zone:     pick(MaxZones),
			Size:     rng.Float64() * 1e6,
			Ref:      i,
		}
	}
	if down {
		for i := range reqs {
			reqs[i].Lost = true
		}
		return reqs
	}
	for i := 1; i < len(reqs); i++ { // insertion sort: SCAN order
		for j := i; j > 0 && reqs[j].Cylinder < reqs[j-1].Cylinder; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	arm, clock := 0, 0.0
	for i := range reqs {
		r := &reqs[i]
		r.SeekCylinders = r.Cylinder - arm
		arm = r.Cylinder
		r.Start = clock
		r.Seek, r.Rotation, r.Transfer = rng.Float64()*0.02, rng.Float64()*0.01, rng.Float64()*0.05
		r.Retries = pick(fault.MaxRetries)
		r.Lost = rng.IntN(4) == 0
		clock += r.Seek + r.Rotation + r.Transfer
		r.End = clock
	}
	return reqs
}

// servedSweep serves random fragments through the kernel itself, under a
// random fault regime with retries up to the cap.
func servedSweep(rng *rand.Rand, g *disk.Geometry) (reqs []sweep.Request, down bool) {
	eff := fault.Identity()
	switch rng.IntN(4) {
	case 0:
		eff.Failed = true
	case 1:
		eff.ErrorProb, eff.Retries = 0.9, 1+rng.IntN(fault.MaxRetries)
	}
	in := make([]sweep.Fragment, rng.IntN(200))
	for i := range in {
		loc := g.SampleLocation(rng)
		in[i] = sweep.Fragment{Cylinder: loc.Cylinder, Zone: loc.Zone, Size: rng.Float64() * 4e5, Ref: i}
	}
	reqs = make([]sweep.Request, len(in))
	sweep.Serve(g, eff, rng, nil, in, reqs)
	return reqs, eff.Failed
}

// TestWritePathRoundTrip: requests written through Span.Append and Record
// read back from Live and Frozen equal, field for field, what the
// RequestEvent conversion made of them — the arm travel the record does
// not keep included, on served and failed disks, at the limits of every
// narrowed field, and for sweeps the kernel itself served.
func TestWritePathRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 56 {
		t.Fatalf("a record is %d bytes, want 56", got)
	}
	const capacity = 64
	rng := rand.New(rand.NewPCG(1, 2))
	g := disk.QuantumViking21()
	r := NewRecorder(Config{Spans: capacity})
	var want []RoundSpan
	var w Span // one writer span, refilled after each Record
	for i := 0; i < 3*capacity; i++ {
		var reqs []sweep.Request
		down := rng.IntN(5) == 0
		if i%2 == 0 {
			reqs = randomSweep(rng, down)
		} else {
			reqs, down = servedSweep(rng, g)
		}
		w.Sweep = Sweep{
			Round: i / 4, Disk: i % 4,
			Seek: rng.Float64(), Rotation: rng.Float64(), Transfer: rng.Float64(),
			Busy: rng.Float64(), Observed: rng.Float64(),
			Late: rng.IntN(10), Lost: rng.IntN(10), Retries: rng.IntN(10),
			Faulty: down || rng.IntN(2) == 0, Down: down,
		}
		sp := RoundSpan{
			Seq: uint64(i), Round: w.Round, Disk: w.Disk,
			Seek: w.Seek, Rotation: w.Rotation, Transfer: w.Transfer, Busy: w.Busy, Observed: w.Observed,
			Late: w.Late, Lost: w.Lost, Retries: w.Retries, Faulty: w.Faulty, Down: w.Down,
		}
		for j := range reqs {
			stream := rng.Int64() - math.MaxInt64/2
			late := !reqs[j].Lost && rng.IntN(3) == 0
			w.Append(stream, &reqs[j], late)
			oracleAppend(&sp, stream, &reqs[j], late)
		}
		r.Record(&w)
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
				t.Fatalf("%s: span seq %d differs from the RequestEvent conversion:\n got %+v\nwant %+v", source, want[i].Seq, got[i], want[i])
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
