package sweep

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/fault"
)

func testRand() *rand.Rand { return dist.NewRand(9, 99) }

// at builds a request on the given cylinder of the Viking (its zone
// follows from the cylinder).
func at(g *disk.Geometry, cyl int, size float64, ref int) Request {
	return Request{Cylinder: cyl, Zone: g.ZoneOfCylinder(cyl), Size: size, Ref: ref}
}

func always(int, int) bool { return true }

// TestServe is the kernel's table: each case gives the requests, the
// effects and the read-error schedule, and checks the in-place outcomes
// and totals against eq. 3.1.1 computed by hand from the same draws.
func TestServe(t *testing.T) {
	g := disk.QuantumViking21()
	rot := g.RotationTime
	cases := []struct {
		name    string
		eff     fault.Effects
		readErr func(pos, attempt int) bool
		reqs    []Request
		// draws is how many rng values the sweep must consume.
		draws int
		check func(t *testing.T, u []float64, reqs []Request, tot Totals)
	}{
		{
			name: "empty slice",
			eff:  fault.Identity(),
			check: func(t *testing.T, _ []float64, _ []Request, tot Totals) {
				if tot != (Totals{}) {
					t.Errorf("totals = %+v, want zero", tot)
				}
			},
		},
		{
			name:  "single request",
			eff:   fault.Identity(),
			reqs:  []Request{at(g, 1000, 200e3, 0)},
			draws: 1,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				r := reqs[0]
				seek := g.Seek.Time(1000)
				trans := 200e3 / g.TransferRate(r.Zone)
				if r.SeekCylinders != 1000 || r.Start != 0 || r.Seek != seek ||
					r.Rotation != u[0]*rot || r.Transfer != trans {
					t.Errorf("request = %+v", r)
				}
				if want := seek + u[0]*rot + trans; r.End != want || tot.Busy != want {
					t.Errorf("end %v busy %v, want %v", r.End, tot.Busy, want)
				}
				if tot.Seek != r.Seek || tot.Rotation != r.Rotation || tot.Transfer != r.Transfer {
					t.Errorf("totals %+v do not match the one request %+v", tot, r)
				}
			},
		},
		{
			name:  "scan order with an equal-cylinder tie",
			eff:   fault.Identity(),
			reqs:  []Request{at(g, 4000, 1e5, 7), at(g, 500, 1e5, 5), at(g, 4000, 2e5, 2), at(g, 90, 1e5, 9)},
			draws: 4,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				wantRef := []int{9, 5, 2, 7} // ascending cylinder, tie by Ref
				wantCyl := []int{90, 410, 3500, 0}
				prevEnd := 0.0
				for i, r := range reqs {
					if r.Ref != wantRef[i] || r.SeekCylinders != wantCyl[i] {
						t.Errorf("position %d: ref %d travel %d, want %d/%d", i, r.Ref, r.SeekCylinders, wantRef[i], wantCyl[i])
					}
					if r.Start != prevEnd {
						t.Errorf("position %d starts at %v, previous ended at %v", i, r.Start, prevEnd)
					}
					if r.Rotation != u[i]*rot {
						t.Errorf("position %d did not take draw %d", i, i)
					}
					prevEnd = r.End
				}
				if reqs[3].Seek != 0 {
					t.Errorf("zero-distance seek costs %v", reqs[3].Seek)
				}
				if tot.Busy != prevEnd {
					t.Errorf("busy %v, last request ends at %v", tot.Busy, prevEnd)
				}
			},
		},
		{
			name:    "retries exhausted loses the fragment",
			eff:     fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 0.5, Retries: 2},
			readErr: always,
			reqs:    []Request{at(g, 10, 1e5, 0), at(g, 20, 1e5, 1)},
			draws:   2,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				for i, r := range reqs {
					if !r.Lost || r.Retries != 2 {
						t.Errorf("request %d: lost=%v retries=%d, want lost after 2", i, r.Lost, r.Retries)
					}
					if want := u[i]*rot + rot + rot; r.Rotation != want {
						t.Errorf("request %d rotation %v, want draw plus two revolutions %v", i, r.Rotation, want)
					}
				}
				if tot.Lost != 2 || tot.Retries != 4 {
					t.Errorf("totals lost=%d retries=%d, want 2/4", tot.Lost, tot.Retries)
				}
				if math.Abs(tot.Seek+tot.Rotation+tot.Transfer-tot.Busy) > 1e-12 {
					t.Errorf("phases %+v do not sum to busy", tot)
				}
			},
		},
		{
			name: "read errors are keyed by scan position",
			eff:  fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 0.5, Retries: 3},
			readErr: func(pos, attempt int) bool {
				return pos == 1 && attempt == 0
			},
			reqs:  []Request{at(g, 300, 1e5, 0), at(g, 100, 1e5, 1), at(g, 200, 1e5, 2)},
			draws: 3,
			check: func(t *testing.T, _ []float64, reqs []Request, tot Totals) {
				// SCAN position 1 is cylinder 200 (Ref 2), not gather index 1.
				for i, r := range reqs {
					want := 0
					if i == 1 {
						want = 1
					}
					if r.Retries != want || r.Lost {
						t.Errorf("position %d (ref %d): retries=%d lost=%v", i, r.Ref, r.Retries, r.Lost)
					}
				}
				if reqs[1].Ref != 2 || tot.Retries != 1 || tot.Lost != 0 {
					t.Errorf("ref at position 1 = %d, totals %+v", reqs[1].Ref, tot)
				}
			},
		},
		{
			name:  "nil readErr draws attempts from rng after the rotation draw",
			eff:   fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 1, Retries: 0},
			reqs:  []Request{at(g, 10, 1e5, 0), at(g, 20, 1e5, 1)},
			draws: 4,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				if reqs[0].Rotation != u[0]*rot || reqs[1].Rotation != u[2]*rot {
					t.Error("rotation draws are not interleaved with the attempt draws")
				}
				if tot.Lost != 2 || tot.Retries != 0 {
					t.Errorf("totals %+v, want both lost without retrying", tot)
				}
			},
		},
		{
			name: "failed disk",
			eff:  fault.Effects{LatencyScale: 1, RateScale: 1, Failed: true},
			reqs: []Request{at(g, 4000, 1e5, 3), {Cylinder: 5, Size: 1e5, Ref: 1, Retries: 9, End: 4}},
			check: func(t *testing.T, _ []float64, reqs []Request, tot Totals) {
				if tot != (Totals{Lost: 2}) {
					t.Errorf("totals = %+v, want only Lost=2", tot)
				}
				if reqs[0].Ref != 3 || reqs[1].Ref != 1 {
					t.Error("a failed disk must leave the given order alone")
				}
				for i, r := range reqs {
					if !r.Lost || r.Retries != 0 || r.SeekCylinders != 0 ||
						r.Start != 0 || r.End != 0 || r.Seek != 0 || r.Rotation != 0 || r.Transfer != 0 {
						t.Errorf("request %d was served on a failed disk: %+v", i, r)
					}
				}
			},
		},
		{
			name:  "latency and rate scales",
			eff:   fault.Effects{LatencyScale: 2, RateScale: 0.5},
			reqs:  []Request{at(g, 1000, 200e3, 0)},
			draws: 1,
			check: func(t *testing.T, u []float64, reqs []Request, _ Totals) {
				r := reqs[0]
				if r.Seek != 2*g.Seek.Time(1000) || r.Rotation != 2*(u[0]*rot) ||
					r.Transfer != 4*(200e3/g.TransferRate(r.Zone)) {
					t.Errorf("scaled request = %+v", r)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The same-seeded twin replays the draws the sweep consumed.
			rng, twin := testRand(), testRand()
			tot := Serve(g, tc.eff, rng, tc.readErr, tc.reqs)
			u := make([]float64, tc.draws)
			for i := range u {
				u[i] = twin.Float64()
			}
			if rng.Uint64() != twin.Uint64() {
				t.Fatalf("sweep did not consume exactly %d draws", tc.draws)
			}
			tc.check(t, u, tc.reqs, tot)
		})
	}
}

// TestServeReusesSlice: outcomes of an earlier sweep never leak into the
// next one over the same caller-owned slice, and serving allocates nothing.
func TestServeReusesSlice(t *testing.T) {
	g := disk.QuantumViking21()
	reqs := []Request{at(g, 10, 1e5, 0), at(g, 20, 1e5, 1)}
	lossy := fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 0.5, Retries: 1}
	Serve(g, lossy, testRand(), always, reqs)
	tot := Serve(g, fault.Identity(), testRand(), nil, reqs)
	for i, r := range reqs {
		if r.Lost || r.Retries != 0 {
			t.Errorf("request %d kept lost=%v retries=%d from the previous sweep", i, r.Lost, r.Retries)
		}
	}
	if tot.Lost != 0 || tot.Retries != 0 {
		t.Errorf("totals = %+v", tot)
	}
	rng := testRand()
	if n := testing.AllocsPerRun(100, func() { Serve(g, lossy, rng, always, reqs) }); n != 0 {
		t.Errorf("Serve allocates %v objects per sweep, want 0", n)
	}
}

// TestScanOrderMatchesReferenceSort: the kernel's in-place ordering step
// agrees with a library sort on (Cylinder, Ref) at every size, ties and
// all, and carries each request's Zone and Size along with its key.
func TestScanOrderMatchesReferenceSort(t *testing.T) {
	g := disk.QuantumViking21()
	rng := testRand()
	// Both sides of scanOrder's straight-insertion threshold.
	for _, n := range []int{0, 1, 2, 3, 11, 12, 26, insertionMax, insertionMax + 1, 1000, 5000} {
		reqs := make([]Request, n)
		for i := range reqs {
			// Few distinct cylinders, so ties are common.
			reqs[i] = at(g, rng.IntN(n/3+1), float64(i), i)
		}
		want := slices.Clone(reqs)
		slices.SortFunc(want, func(a, b Request) int {
			return cmp.Or(cmp.Compare(a.Cylinder, b.Cylinder), cmp.Compare(a.Ref, b.Ref))
		})
		Serve(g, fault.Identity(), rng, nil, reqs)
		for i := range reqs {
			got := Request{Cylinder: reqs[i].Cylinder, Zone: reqs[i].Zone, Size: reqs[i].Size, Ref: reqs[i].Ref}
			if got != want[i] {
				t.Fatalf("n=%d position %d: served %+v, reference sort has %+v", n, i, got, want[i])
			}
		}
	}
}
