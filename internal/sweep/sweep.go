// Package sweep is the one SCAN sweep of the repository: the realization
// of the round service time T_N = SEEK(N) + Σ T_rot,i + Σ T_trans,i
// (eq. 3.1.1) that the live server, the Monte-Carlo simulators, and the
// mixed-workload and client-buffering extensions all serve their rounds
// through. Every bound of the paper is a statement about this one random
// variable, so it is drawn in exactly one place.
//
// The kernel knows nothing of streams, deadlines, or tracing: callers own
// the request slice, read each request's outcome back from it in SCAN
// order, and apply their own deadline to End.
package sweep

import (
	"math/rand/v2"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
)

// DownRoundLengths is the round time, in round lengths, that callers
// record for a sweep on a fully failed disk: beyond the round-time
// histogram's top finite bucket (8t), so a down round lands in +Inf and
// counts against the empirical late tail while the sum stays finite.
const DownRoundLengths = 16

// insertionMax is the largest sweep scanOrder sorts by straight insertion.
// On fresh uniform cylinders each call, insertion measured 0.63 vs 0.98 µs
// against the gapped passes at n = 26 and 5.4 vs 6.2 µs at n = 100; the
// two cross near n = 130.
const insertionMax = 100

// Request is one fragment read of a sweep. The caller fills the first
// four fields; Serve writes the rest in place.
type Request struct {
	// Cylinder and Zone locate the fragment; Size is its length in bytes.
	Cylinder, Zone int
	Size           float64
	// Ref is the caller's handle for the request (a stream index). It
	// must be unique within a sweep: SCAN ties on a cylinder break by
	// ascending Ref, which keeps seeded runs reproducible.
	Ref int

	// SeekCylinders is the arm travel from the previous request.
	SeekCylinders int
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

// Serve sorts reqs into SCAN order (ascending cylinder, then Ref) and
// serves them in one sweep of disk g from an arm parked at cylinder 0,
// under the fault effects eff. It allocates nothing.
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
func Serve(g *disk.Geometry, eff fault.Effects, rng *rand.Rand, readErr func(pos, attempt int) bool, reqs []Request) Totals {
	var tot Totals
	if eff.Failed {
		for i := range reqs {
			r := &reqs[i]
			*r = Request{Cylinder: r.Cylinder, Zone: r.Zone, Size: r.Size, Ref: r.Ref, Lost: true}
		}
		tot.Lost = len(reqs)
		return tot
	}
	scanOrder(reqs)
	arm := 0
	var clock float64
	for i := range reqs {
		r := &reqs[i]
		seekCyl := r.Cylinder - arm
		if seekCyl < 0 {
			seekCyl = -seekCyl
		}
		seek := g.Seek.Time(float64(seekCyl)) * eff.LatencyScale
		rot := rng.Float64() * g.RotationTime * eff.LatencyScale
		trans := g.TransferTime(r.Size, r.Zone) * eff.LatencyScale / eff.RateScale
		r.Start = clock
		clock += seek + rot + trans
		tot.Seek += seek
		tot.Rotation += rot
		tot.Transfer += trans
		arm = r.Cylinder

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
					tot.Lost++
					break
				}
				// Each retry re-reads after one full (inflated) revolution.
				penalty := g.RotationTime * eff.LatencyScale
				clock += penalty
				tot.Rotation += penalty
				rot += penalty
				r.Retries++
			}
			tot.Retries += r.Retries
		}
		r.SeekCylinders = seekCyl
		r.Seek, r.Rotation, r.Transfer = seek, rot, trans
		r.End = clock
	}
	tot.Busy = clock
	return tot
}

// scanOrder is the ordering step of the sweep: ascending (Cylinder, Ref),
// a total order, so any correct sort yields the same sweep. It is a Shell
// sort that moves only the four caller-filled fields — the outcome fields
// are dead until the sweep writes them. slices.SortFunc would pass both
// 96-byte requests to its comparator by value and swap them whole, which
// measured 6–10 % slower server rounds than sorting the 32-byte private
// request structs the callers used to keep.
//
// Up to insertionMax requests — every sweep an admitted load produces
// (N_max is 26 to 32 on the paper's disks) — the wide-gap passes cost
// more than the disorder they remove, so the gap-1 pass runs alone.
func scanOrder(reqs []Request) {
	gap := 1
	if len(reqs) > insertionMax {
		gap = len(reqs) * 5 / 11
	}
	for ; ; gap = max(gap*5/11, 1) {
		for i := gap; i < len(reqs); i++ {
			cyl, zone, size, ref := reqs[i].Cylinder, reqs[i].Zone, reqs[i].Size, reqs[i].Ref
			j := i
			for ; j >= gap; j -= gap {
				p := &reqs[j-gap]
				if p.Cylinder < cyl || p.Cylinder == cyl && p.Ref < ref {
					break
				}
				q := &reqs[j]
				q.Cylinder, q.Zone, q.Size, q.Ref = p.Cylinder, p.Zone, p.Size, p.Ref
			}
			q := &reqs[j]
			q.Cylinder, q.Zone, q.Size, q.Ref = cyl, zone, size, ref
		}
		if gap == 1 {
			return
		}
	}
}
