package sweep

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/fault"
)

func testRand() *rand.Rand { return dist.NewRand(9, 99) }

// at builds a fragment on the given cylinder of the Viking (its zone
// follows from the cylinder).
func at(g *disk.Geometry, cyl int, size float64, ref int) Fragment {
	return Fragment{Cylinder: cyl, Zone: g.ZoneOfCylinder(cyl), Size: size, Ref: ref}
}

func always(int, int) bool { return true }

// TestServe is the kernel's table: each case gives the fragments, the
// effects and the read-error schedule, and checks the served requests and
// totals against eq. 3.1.1 computed by hand from the same draws. Every
// case serves into a slice full of another sweep's outcomes.
func TestServe(t *testing.T) {
	g := disk.QuantumViking21()
	rot := g.RotationTime
	cases := []struct {
		name    string
		eff     fault.Effects
		readErr func(pos, attempt int) bool
		in      []Fragment
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
			in:    []Fragment{at(g, 1000, 200e3, 0)},
			draws: 1,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				r := reqs[0]
				seek := g.Seek.Time(1000)
				trans := 200e3 / g.TransferRate(r.Zone)
				if r.Drawn != u[0]*rot || r.Start != 0 || r.Seek != seek ||
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
			in:    []Fragment{at(g, 4000, 1e5, 7), at(g, 500, 1e5, 5), at(g, 4000, 2e5, 2), at(g, 90, 1e5, 9)},
			draws: 4,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				wantRef := []int{9, 5, 2, 7} // ascending cylinder, tie by Ref
				wantTravel := []float64{90, 410, 3500, 0}
				prevEnd := 0.0
				for i, r := range reqs {
					if r.Ref != wantRef[i] || r.Seek != g.Seek.Time(wantTravel[i]) {
						t.Errorf("position %d: ref %d seek %v, want ref %d and a seek of %v cylinders", i, r.Ref, r.Seek, wantRef[i], wantTravel[i])
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
			in:      []Fragment{at(g, 10, 1e5, 0), at(g, 20, 1e5, 1)},
			draws:   2,
			check: func(t *testing.T, u []float64, reqs []Request, tot Totals) {
				for i, r := range reqs {
					if !r.Lost || r.Retries != 2 {
						t.Errorf("request %d: lost=%v retries=%d, want lost after 2", i, r.Lost, r.Retries)
					}
					if want := u[i]*rot + rot + rot; r.Rotation != want || r.Drawn != u[i]*rot {
						t.Errorf("request %d rotation %v drawn %v, want draw %v plus two revolutions %v", i, r.Rotation, r.Drawn, u[i]*rot, want)
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
			in:    []Fragment{at(g, 300, 1e5, 0), at(g, 100, 1e5, 1), at(g, 200, 1e5, 2)},
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
			in:    []Fragment{at(g, 10, 1e5, 0), at(g, 20, 1e5, 1)},
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
			in:   []Fragment{at(g, 4000, 1e5, 3), {Cylinder: 5, Size: 1e5, Ref: 1}},
			check: func(t *testing.T, _ []float64, reqs []Request, tot Totals) {
				if tot != (Totals{Lost: 2}) {
					t.Errorf("totals = %+v, want only Lost=2", tot)
				}
				if reqs[0].Ref != 3 || reqs[1].Ref != 1 {
					t.Error("a failed disk must leave the given order alone")
				}
				for i, r := range reqs {
					if !r.Lost || r.Retries != 0 || r.Drawn != 0 ||
						r.Start != 0 || r.End != 0 || r.Seek != 0 || r.Rotation != 0 || r.Transfer != 0 {
						t.Errorf("request %d was served on a failed disk: %+v", i, r)
					}
				}
			},
		},
		{
			name:  "latency and rate scales",
			eff:   fault.Effects{LatencyScale: 2, RateScale: 0.5},
			in:    []Fragment{at(g, 1000, 200e3, 0)},
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
			in := slices.Clone(tc.in)
			reqs := make([]Request, len(in))
			for i := range reqs {
				reqs[i] = Request{Fragment: Fragment{Cylinder: -1, Ref: -1}, Drawn: 7, Start: 1, End: 4, Seek: 1, Rotation: 1, Transfer: 1, Retries: 9, Lost: true}
			}
			tot := Serve(g, tc.eff, rng, tc.readErr, in, reqs)
			if !slices.Equal(in, tc.in) {
				t.Errorf("Serve wrote to its input: %+v", in)
			}
			u := make([]float64, tc.draws)
			for i := range u {
				u[i] = twin.Float64()
			}
			if rng.Uint64() != twin.Uint64() {
				t.Fatalf("sweep did not consume exactly %d draws", tc.draws)
			}
			tc.check(t, u, reqs, tot)
		})
	}
}

// TestServeReusesSlice: outcomes of an earlier sweep never leak into the
// next one served into the same caller-owned slice, and serving allocates
// nothing on either side of the size split.
func TestServeReusesSlice(t *testing.T) {
	g := disk.QuantumViking21()
	in := []Fragment{at(g, 10, 1e5, 0), at(g, 20, 1e5, 1)}
	reqs := make([]Request, len(in))
	lossy := fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 0.5, Retries: 1}
	Serve(g, lossy, testRand(), always, in, reqs)
	tot := Serve(g, fault.Identity(), testRand(), nil, in, reqs)
	for i, r := range reqs {
		if r.Lost || r.Retries != 0 {
			t.Errorf("request %d kept lost=%v retries=%d from the previous sweep", i, r.Lost, r.Retries)
		}
	}
	if tot.Lost != 0 || tot.Retries != 0 {
		t.Errorf("totals = %+v", tot)
	}
	rng := testRand()
	for _, n := range []int{26, 200} {
		in, reqs := uniformFragments(g, rng, n), make([]Request, n)
		if a := testing.AllocsPerRun(100, func() { Serve(g, lossy, rng, always, in, reqs) }); a != 0 {
			t.Errorf("Serve allocates %v objects per sweep of %d, want 0", a, n)
		}
	}
}

// uniformFragments draws n fragments on uniform cylinders of the whole
// disk, Ref = index.
func uniformFragments(g *disk.Geometry, rng *rand.Rand, n int) []Fragment {
	in := make([]Fragment, n)
	for i := range in {
		in[i] = at(g, rng.IntN(g.Cylinders()), 1e5+float64(i), i)
	}
	return in
}

// referenceServe is what Serve must equal: a library sort on
// (Cylinder, Ref) and the serve arithmetic of the kernel as it stood when
// it sorted the requests in place.
func referenceServe(g *disk.Geometry, eff fault.Effects, rng *rand.Rand, readErr func(pos, attempt int) bool, in []Fragment) ([]Request, Totals) {
	var tot Totals
	reqs := make([]Request, len(in))
	for i, f := range in {
		reqs[i].Fragment = f
	}
	if eff.Failed {
		for i := range reqs {
			reqs[i].Lost = true
		}
		tot.Lost = len(reqs)
		return reqs, tot
	}
	slices.SortFunc(reqs, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.Cylinder, b.Cylinder), cmp.Compare(a.Ref, b.Ref))
	})
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
		r.Drawn = rot
		trans := g.TransferTime(r.Size, r.Zone) * eff.LatencyScale / eff.RateScale
		r.Start = clock
		clock += seek + rot + trans
		tot.Seek += seek
		tot.Rotation += rot
		tot.Transfer += trans
		arm = r.Cylinder
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
					r.Lost = true
					tot.Lost++
					break
				}
				penalty := g.RotationTime * eff.LatencyScale
				clock += penalty
				tot.Rotation += penalty
				rot += penalty
				r.Retries++
			}
			tot.Retries += r.Retries
		}
		r.Seek, r.Rotation, r.Transfer = seek, rot, trans
		r.End = clock
	}
	tot.Busy = clock
	return reqs, tot
}

// TestScanOrderMatchesReferenceSort holds Serve, bit for bit, to
// referenceServe on both sides of the size split: at every size, over
// cylinders of the whole disk and of a span of a few (so most requests
// tie), with Ref a random permutation (so ties cannot be settled by input
// position), under each way a read error is decided, on a failed disk,
// and with one cylinder off the disk. out is reused from sweep to sweep
// and starts each one full of the last one's outcomes. Besides the Viking
// it runs on a disk whose cylinder count divides the band multiplier (a
// cylinder one past its edge would index one past the last band), on the
// widest disk the key path takes (the last cylinder's band has no slack
// below the band count), and on one a cylinder wider, which the key path
// must decline.
func TestScanOrderMatchesReferenceSort(t *testing.T) {
	viking := disk.QuantumViking21()
	geoms := []*disk.Geometry{viking}
	for _, cylinders := range []int{4096, 1 << 32, 1<<32 + 1} {
		g, err := disk.New("wide", viking.RotationTime, []disk.Zone{{Tracks: cylinders, TrackCapacity: 1e5}}, viking.Seek)
		if err != nil {
			t.Fatal(err)
		}
		geoms = append(geoms, g)
	}
	rng := testRand()
	lossy := fault.Effects{LatencyScale: 1.5, RateScale: 0.8, ErrorProb: 0.3, Retries: 2}
	effects := []struct {
		name    string
		eff     fault.Effects
		readErr func(pos, attempt int) bool
	}{
		{"healthy", fault.Identity(), nil},
		{"errors-by-readErr", lossy, func(pos, attempt int) bool { return (pos*7+attempt*3)%5 < 2 }},
		{"errors-by-rng", lossy, nil},
		{"failed", fault.Effects{LatencyScale: 1, RateScale: 1, Failed: true}, nil},
	}
	out := make([]Request, 5000)
	for _, g := range geoms {
		for _, n := range []int{0, 1, 2, 3, 26, 127, insertionMax, insertionMax + 1, 1000, 5000} {
			for _, span := range []int{g.Cylinders(), 1, 3, 20} {
				for _, offDisk := range []int{0, -1, g.Cylinders()} {
					in := make([]Fragment, n)
					base := rng.IntN(g.Cylinders() - span + 1)
					for i, ref := range rng.Perm(n) {
						in[i] = at(g, base+rng.IntN(span), 1e5+float64(i), ref)
					}
					if n > 0 {
						// The last cylinder of the disk is always present;
						// offDisk puts one request past either edge.
						in[rng.IntN(n)].Cylinder = g.Cylinders() - 1
						if offDisk != 0 {
							in[rng.IntN(n)].Cylinder = offDisk
						}
					}
					for _, e := range effects {
						where := fmt.Sprintf("%d cylinders n=%d span=%d off=%d %s", g.Cylinders(), n, span, offDisk, e.name)
						seed := rng.Uint64()
						got, want := dist.NewRand(seed, 1), dist.NewRand(seed, 1)
						wantReqs, wantTot := referenceServe(g, e.eff, want, e.readErr, in)
						before := slices.Clone(in)
						gotTot := Serve(g, e.eff, got, e.readErr, in, out[:n])
						if !slices.Equal(in, before) {
							t.Fatalf("%s: Serve wrote to its input", where)
						}
						if gotTot != wantTot {
							t.Fatalf("%s: totals %+v, reference %+v", where, gotTot, wantTot)
						}
						for i := range wantReqs {
							if out[i] != wantReqs[i] {
								t.Fatalf("%s position %d: served %+v, reference %+v", where, i, out[i], wantReqs[i])
							}
						}
						if got.Uint64() != want.Uint64() {
							t.Fatalf("%s: rng left in a different state than the reference's", where)
						}
					}
				}
			}
		}
	}
}

var sinkTotals Totals

// BenchmarkServe times one sweep over fresh uniform cylinders per op, at
// an admitted size and past the size split.
func BenchmarkServe(b *testing.B) {
	g := disk.QuantumViking21()
	for _, n := range []int{26, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := testRand()
			in, out := uniformFragments(g, rng, n), make([]Request, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range in {
					in[j].Cylinder = rng.IntN(g.Cylinders())
				}
				sinkTotals = Serve(g, fault.Identity(), rng, nil, in, out)
			}
		})
	}
}
