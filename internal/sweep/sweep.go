// Package sweep is the one SCAN sweep of the repository: the realization
// of the round service time T_N = SEEK(N) + Σ T_rot,i + Σ T_trans,i
// (eq. 3.1.1) that the live server, the Monte-Carlo simulators, and the
// mixed-workload and client-buffering extensions all serve their rounds
// through. Every bound of the paper is a statement about this one random
// variable, so it is drawn in exactly one place.
//
// The kernel knows nothing of streams, deadlines, or tracing. Callers own
// two slices they reuse from round to round: the round's fragments, 32
// bytes each, appended in whatever order the caller meets them, and as
// many requests, which Serve fills in SCAN order with each fragment and
// its outcome. Callers read the requests back in that order and apply
// their own deadline to End. The cylinder order is new every round, so
// the kernel settles it on 8-byte keys and touches each 96-byte request
// once, to write it.
package sweep

import (
	"encoding/binary"
	"math/rand/v2"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
)

// DownRoundLengths is the round time, in round lengths, that callers
// record for a sweep on a fully failed disk: beyond the round-time
// histogram's top finite bucket (8t), so a down round lands in +Inf and
// counts against the empirical late tail while the sum stays finite.
const DownRoundLengths = 16

// insertionMax is the size of the stack buffer Serve orders sort keys in,
// and with it the largest sweep the key path takes: every sweep an
// admitted load produces fits (N_max is 26 to 32 on the paper's disks).
// Larger sweeps order the requests themselves in gapped passes, which
// overtake straight insertion near n = 130.
const insertionMax = 128

// bands is how many equal cylinder bands the key path distributes a sweep
// over before its insertion pass.
const bands = 32

// Fragment is one fragment read as the caller describes it.
type Fragment struct {
	// Cylinder and Zone locate the fragment; Size is its length in bytes.
	Cylinder, Zone int
	Size           float64
	// Ref is the caller's handle for the request (a stream index). It
	// must be unique within a sweep: SCAN ties on a cylinder break by
	// ascending Ref, which keeps seeded runs reproducible.
	Ref int
}

// Request is one served fragment read: the caller's Fragment and the
// outcome Serve wrote for it.
type Request struct {
	Fragment

	// Drawn is the rotational latency the sweep drew for the request,
	// before any retry revolutions. With the Fragment, Retries and the
	// sweep's geometry and fault scales it is all Advance reads, so the
	// times below can be rebuilt from it.
	Drawn float64
	// Start and End are the service start and completion offsets from the
	// sweep start in seconds; Seek, Rotation, and Transfer the three
	// service phases between them. Rotation includes retry revolutions.
	Start, End               float64
	Seek, Rotation, Transfer float64
	// Retries counts the extra revolutions paid re-reading after
	// transient read errors; Lost marks a fragment never delivered
	// (retries exhausted, or the disk failed).
	Retries int
	Lost    bool
}

// Totals are the phase totals of one sweep. Busy is the realized T_N,
// the completion offset of the last request (0 on a failed disk).
type Totals struct {
	Seek, Rotation, Transfer, Busy float64
	Retries, Lost                  int
}

// Serve serves the fragments of in, given in any order, in one SCAN sweep
// (ascending cylinder, then Ref) of disk g from an arm parked at cylinder
// 0, under the fault effects eff. out, which must be as long as in, is
// overwritten whole: out[j] is the j-th request served, its Fragment
// copied from in and every outcome field written. in is only read, and
// Serve allocates nothing.
//
// Draw-order contract (seeded callers depend on it): one rng.Float64()
// per request, in SCAN order, for its rotational latency, immediately
// followed by that request's read-error attempts. With eff.ErrorProb > 0
// attempt a (0-based) of the request at SCAN position pos fails when
// readErr(pos, a) says so, or, with a nil readErr, when a further
// rng.Float64() falls below eff.ErrorProb; each failure costs one full
// revolution until eff.Retries are spent, after which the fragment is
// lost. A failed disk serves nothing: every request is marked Lost with
// zero times, in the order given, and rng is not touched.
//
// Size split: up to insertionMax fragments, all on cylinders of g, are
// ordered as 8-byte keys and out is filled from in as the sweep goes;
// anything else is copied to out and ordered there. The order and the
// outcomes are the same either way.
func Serve(g *disk.Geometry, eff fault.Effects, rng *rand.Rand, readErr func(pos, attempt int) bool, in []Fragment, out []Request) Totals {
	if len(out) != len(in) {
		panic("sweep: Serve needs len(out) == len(in)")
	}
	if eff.Failed {
		for i := range out {
			out[i] = Request{Fragment: in[i], Lost: true}
		}
		return Totals{Lost: len(in)}
	}
	var keys [insertionMax]uint64
	keyed := orderKeys(&keys, in, g.Cylinders())
	if !keyed {
		for i := range out {
			out[i].Fragment = in[i]
		}
		scanOrder(out)
	}
	var cur Cursor
	for i := range out {
		r := &out[i]
		if keyed {
			r.Fragment = in[uint32(keys[i])]
		}
		r.Drawn = rng.Float64() * g.RotationTime * eff.LatencyScale
		r.Retries, r.Lost = 0, false
		if eff.ErrorProb > 0 {
			for attempt := 0; ; attempt++ {
				var fails bool
				if readErr != nil {
					fails = readErr(i, attempt)
				} else {
					fails = rng.Float64() < eff.ErrorProb
				}
				if !fails {
					break
				}
				if attempt >= eff.Retries {
					r.Lost = true // retries exhausted: the fragment is lost
					break
				}
				r.Retries++
			}
		}
		cur.Advance(g, eff.LatencyScale, eff.RateScale, r)
	}
	return cur.tot
}

// Cursor is a SCAN sweep between two requests: where the arm stands and
// the sweep's running totals, whose Busy is the clock. The zero Cursor is
// a sweep's start, the arm parked at cylinder 0.
type Cursor struct {
	arm int
	tot Totals
}

// Advance serves r next: from its Fragment, Drawn and Retries, the disk g
// and the round's latency and rate scales, it writes r's Start, Seek,
// Rotation, Transfer and End (eq. 3.1.1, each retry one more full
// revolution) and moves the cursor past it. It is the whole of a served
// request's arithmetic: Serve calls it once per request in SCAN order,
// and a reader that kept those inputs rebuilds the same times, bit for
// bit, by calling it in the same order.
func (c *Cursor) Advance(g *disk.Geometry, latency, rate float64, r *Request) {
	travel := r.Cylinder - c.arm
	if travel < 0 {
		travel = -travel
	}
	seek := g.Seek.Time(float64(travel)) * latency
	rot := r.Drawn
	trans := g.TransferTime(r.Size, r.Zone) * latency / rate
	r.Start = c.tot.Busy
	c.tot.Busy += seek + rot + trans
	c.tot.Seek += seek
	c.tot.Rotation += rot
	c.tot.Transfer += trans
	c.arm = r.Cylinder
	if r.Retries > 0 {
		// Each retry re-reads after one full (inflated) revolution.
		penalty := g.RotationTime * latency
		for range r.Retries {
			c.tot.Busy += penalty
			c.tot.Rotation += penalty
			rot += penalty
		}
		c.tot.Retries += r.Retries
	}
	if r.Lost {
		c.tot.Lost++
	}
	r.Seek, r.Rotation, r.Transfer = seek, rot, trans
	r.End = c.tot.Busy
}

// orderKeys is the ordering step of a sweep of admitted size. The
// cylinder order is the one thing a round cannot carry over from the last
// one, so it is paid for on the smallest thing that holds it: on return
// keys[:len(in)] hold cylinder<<32 | index-into-in in ascending
// (Cylinder, Ref) order. It reports false, with keys undefined, when in
// does not fit the buffer or a cylinder lies outside [0, cylinders).
//
// Straight insertion over fresh uniform cylinders is bound by the
// mispredicted exit of its inner loop, once per key, whatever the width of
// what it moves. So the keys are first dealt into equal cylinder bands —
// two branch-free counting passes — which leaves the insertion pass
// comparing a key with the few others of its own band.
func orderKeys(keys *[insertionMax]uint64, in []Fragment, cylinders int) bool {
	n := len(in)
	if n > insertionMax || uint64(cylinders) > 1<<32 {
		return false // a cylinder would not fit the key's upper half
	}
	// band(c) = c·scale >> 32 is monotone in c and below bands for every
	// c < cylinders, because c·scale ≤ c·(bands<<32)/cylinders.
	scale := uint64(bands<<32) / uint64(cylinders)

	// One counter per band in a byte lane; n ≤ 128 cannot overflow one.
	var end [bands]uint8
	for i := range in {
		c := uint64(in[i].Cylinder)
		if c >= uint64(cylinders) {
			return false
		}
		end[c*scale>>32]++
	}
	// Inclusive prefix sums, eight lanes per multiply: lane k of w·0x01…01
	// is the sum of lanes 0..k of w, and carry holds every earlier word.
	const lanes = 0x0101010101010101
	var carry uint64
	for w := 0; w < bands; w += 8 {
		sums := (binary.LittleEndian.Uint64(end[w:]) + carry) * lanes
		binary.LittleEndian.PutUint64(end[w:], sums)
		carry = sums >> 56
	}
	// Deal from the back, so a band's keys land in ascending index order.
	for i := n - 1; i >= 0; i-- {
		c := uint64(in[i].Cylinder)
		b := c * scale >> 32
		end[b]--
		keys[end[b]] = c<<32 | uint64(i)
	}
	// The insertion pass sorts by (cylinder, index) whatever the bands did.
	for i := 1; i < n; i++ {
		k := keys[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	// Tie pass: equal cylinders are served by ascending Ref, not by index.
	for i := 1; i < n; i++ {
		k := keys[i]
		if k>>32 != keys[i-1]>>32 {
			continue
		}
		ref := in[uint32(k)].Ref
		j := i
		for ; j > 0 && keys[j-1]>>32 == k>>32 && in[uint32(keys[j-1])].Ref > ref; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	return true
}

// scanOrder orders a sweep the key path does not take, in place: ascending
// (Cylinder, Ref), a total order, so any correct sort yields the same
// sweep. It is a Shell sort that moves only the Fragment of each request —
// the outcome fields are dead until the sweep writes them.
// slices.SortFunc would pass both 96-byte requests to its comparator by
// value and swap them whole.
//
// Past insertionMax requests it runs gapped passes before the gap-1 pass;
// a smaller sweep is here only for a cylinder off the disk, and takes the
// gap-1 pass alone.
func scanOrder(reqs []Request) {
	gap := 1
	if len(reqs) > insertionMax {
		gap = len(reqs) * 5 / 11
	}
	for ; ; gap = max(gap*5/11, 1) {
		for i := gap; i < len(reqs); i++ {
			f := reqs[i].Fragment
			j := i
			for ; j >= gap; j -= gap {
				p := &reqs[j-gap].Fragment
				if p.Cylinder < f.Cylinder || p.Cylinder == f.Cylinder && p.Ref < f.Ref {
					break
				}
				reqs[j].Fragment = *p
			}
			reqs[j].Fragment = f
		}
		if gap == 1 {
			return
		}
	}
}
