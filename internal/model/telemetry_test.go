package model

import "testing"

// The §5 claim as counts, which hold on any host: N_max for the paper's
// headline guarantee costs one cold Chernoff solve (every later one is
// warm-started from its neighbour's θ) and no linear re-scan, and asking
// again is a read — no solve, no allocation. The counters are
// process-wide, so the test takes deltas and must not run in parallel.
func TestNMaxForSolverWork(t *testing.T) {
	m := paperModel(t)
	before := Telemetry()
	n, err := m.NMaxFor(paperGuarantee)
	if err != nil {
		t.Fatal(err)
	}
	cold := Telemetry()
	if n != 28 {
		t.Errorf("N_max = %d, want the paper's 28", n)
	}
	if d := cold.ColdSolves - before.ColdSolves; d > 1 {
		t.Errorf("first evaluation ran %d cold solves, want at most 1", d)
	}
	if d := cold.LinearFallbacks - before.LinearFallbacks; d != 0 {
		t.Errorf("first evaluation fell back to a linear scan %d times", d)
	}
	if cold.WarmSolves == before.WarmSolves || cold.SearchProbes == before.SearchProbes {
		t.Errorf("counters did not move across a cold evaluation: %+v -> %+v", before, cold)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.NMaxFor(paperGuarantee); err != nil {
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
}
