package model

import (
	"math"
	"testing"
)

// The §5 claim as counts, which hold on any host: N_max on a fresh model
// costs exactly one Chernoff solve per stream count the walk reads, up to
// the binding k — one cold solve at k = 1, every later one warm-started
// from its neighbour's θ — and asking again is a read: no solve, no
// allocation. The counters are process-wide, so the test takes deltas and
// must not run in parallel.
func TestNMaxForSolverWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    Guarantee
		nmax int
	}{
		{"per-round", Guarantee{Threshold: 0.01}, 26},
		{"per-stream", paperGuarantee, 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := paperModel(t)
			before := Telemetry()
			n, err := m.NMaxFor(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			cold := Telemetry()
			if n != tc.nmax {
				t.Errorf("N_max = %d, want the paper's %d", n, tc.nmax)
			}
			if d := cold.ColdSolves - before.ColdSolves; d != 1 {
				t.Errorf("first evaluation ran %d cold solves, want 1", d)
			}
			if d := (cold.ColdSolves - before.ColdSolves) + (cold.WarmSolves - before.WarmSolves); d != int64(n+1) {
				t.Errorf("first evaluation ran %d Chernoff solves, want %d: one per stream count up to the binding k", d, n+1)
			}
			if cold.SearchProbes == before.SearchProbes {
				t.Errorf("no search probes counted across a cold evaluation: %+v -> %+v", before, cold)
			}

			allocs := testing.AllocsPerRun(100, func() {
				if _, err := m.NMaxFor(tc.g); err != nil {
					t.Fatal(err)
				}
			})
			warm := Telemetry()
			if d := (warm.ColdSolves - cold.ColdSolves) + (warm.WarmSolves - cold.WarmSolves); d != 0 {
				t.Errorf("repeat evaluations ran %d Chernoff solves, want 0", d)
			}
			if d := warm.ChainExtensions - cold.ChainExtensions; d != 0 {
				t.Errorf("repeat evaluations extended the bound chain %d times, want 0", d)
			}
			if allocs != 0 {
				t.Errorf("repeat evaluation allocates %v per call, want 0", allocs)
			}
		})
	}
}

// TestGlitchBoundPastSearchCap: past the search cap b_glitch(n) is counted,
// not solved. Once the chain at the round length reaches the cap (248 on
// the paper's disk), GlitchBound(100000) and GlitchBoundsAt(t) run no
// solve and grow no chain, and both equal, to 1e-12 relative, what a chain
// grown through n says, whose every entry past the cap is 1: the chain's
// prefix sum adds those ones one at a time, the count adds n − cap at once.
func TestGlitchBoundPastSearchCap(t *testing.T) {
	const n = 100000
	m := paperModel(t)
	if _, err := m.GlitchBound(m.maxSearchN); err != nil {
		t.Fatal(err)
	}
	held := len(m.chain.Load().res)
	before := Telemetry()
	got, err := m.GlitchBound(n)
	if err != nil {
		t.Fatal(err)
	}
	at, err := m.GlitchBoundsAt(m.cfg.RoundLength)(n)
	if err != nil {
		t.Fatal(err)
	}
	after := Telemetry()
	if d := (after.ColdSolves - before.ColdSolves) + (after.WarmSolves - before.WarmSolves); d != 0 {
		t.Errorf("GlitchBound(%d) past the cap %d ran %d Chernoff solves, want 0", n, m.maxSearchN, d)
	}
	if d, l := after.ChainExtensions-before.ChainExtensions, len(m.chain.Load().res); d != 0 || l != held {
		t.Errorf("GlitchBound(%d) extended the chain %d times, %d -> %d entries", n, d, held, l)
	}
	if math.Float64bits(at) != math.Float64bits(got) {
		t.Errorf("GlitchBoundsAt(t)(%d) = %v, GlitchBound = %v", n, at, got)
	}

	c := newChain(m.cfg.RoundLength)
	if err := m.grow(c, n); err != nil {
		t.Fatal(err)
	}
	for k := m.maxSearchN + 1; k <= n; k++ {
		if c.res[k].Bound != 1 {
			t.Fatalf("b_late(%d) past the cap = %v, want 1", k, c.res[k].Bound)
		}
	}
	want := m.glitch(c, n, n)
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Errorf("GlitchBound(%d) = %v, the chain through n says %v (relative %.3g)", n, got, want, rel)
	}
}
