package model

import "testing"

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
