package model

import (
	"testing"

	"mzqos/internal/chernoff"
)

// Benchmarks of the admission path, for -cpuprofile and for the README's
// seed-vs-fast table. Variants: "seed-cold" is the retained
// pre-optimization implementation (seedbaseline_test.go) on a fresh model
// — what a config-change re-plan cost before the fast path — "fast-cold"
// the optimized path on a fresh model, and "fast-warm" the optimized path
// on a long-lived model, the admission-decision case the paper's §5
// precomputed tables exist for.

// paperGuarantee is the paper's headline per-stream guarantee: at most 1%
// chance of 12 or more glitches across M=1200 rounds (a two-hour movie).
var paperGuarantee = Guarantee{Rounds: 1200, Glitches: 12, Threshold: 0.01}

// benchGrid is the admission guarantee grid derived from EXPERIMENTS.md:
// per-round lateness thresholds spanning the paper's δ range plus
// per-stream guarantees at M=1200 with the tolerated glitch counts and ε
// values its Table 2 discussion sweeps.
func benchGrid() []Guarantee {
	return []Guarantee{
		{Threshold: 1e-4},
		{Threshold: 1e-3},
		{Threshold: 0.01},
		{Threshold: 0.02},
		{Threshold: 0.05},
		{Threshold: 0.1},
		{Rounds: 1200, Glitches: 6, Threshold: 1e-3},
		{Rounds: 1200, Glitches: 6, Threshold: 0.01},
		{Rounds: 1200, Glitches: 6, Threshold: 0.05},
		{Rounds: 1200, Glitches: 12, Threshold: 1e-4},
		{Rounds: 1200, Glitches: 12, Threshold: 1e-3},
		{Rounds: 1200, Glitches: 12, Threshold: 0.01},
		{Rounds: 1200, Glitches: 12, Threshold: 0.05},
		{Rounds: 1200, Glitches: 24, Threshold: 1e-3},
		{Rounds: 1200, Glitches: 24, Threshold: 0.01},
		{Rounds: 1200, Glitches: 24, Threshold: 0.1},
	}
}

// eachIter runs op b.N times after the timer reset, failing on error.
func eachIter(b *testing.B, op func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChernoffSolve(b *testing.B) {
	tr, err := paperModel(b).RoundTransform(26)
	if err != nil {
		b.Fatal(err)
	}
	seed, err := chernoff.Bound(tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		eachIter(b, func() error { _, err := chernoff.Bound(tr, 1); return err })
	})
	b.Run("warm", func(b *testing.B) {
		eachIter(b, func() error { _, err := chernoff.BoundWarm(tr, 1, seed.Theta); return err })
	})
}

// BenchmarkBoundRead is the memoized read an admission decision makes:
// b_late from the published chain, b_glitch from its prefix sums.
func BenchmarkBoundRead(b *testing.B) {
	m := paperModel(b)
	if _, err := m.GlitchBound(28); err != nil {
		b.Fatal(err)
	}
	b.Run("late-n26", func(b *testing.B) {
		eachIter(b, func() error { _, err := m.LateBound(26); return err })
	})
	b.Run("glitch-n28", func(b *testing.B) {
		eachIter(b, func() error { _, err := m.GlitchBound(28); return err })
	})
}

func BenchmarkNMaxError(b *testing.B) {
	b.Run("seed-cold", func(b *testing.B) {
		eachIter(b, func() error { _, err := paperModel(b).SeedNMaxFor(paperGuarantee); return err })
	})
	b.Run("fast-cold", func(b *testing.B) {
		eachIter(b, func() error { _, err := paperModel(b).NMaxFor(paperGuarantee); return err })
	})
	m := paperModel(b)
	if _, err := m.NMaxFor(paperGuarantee); err != nil {
		b.Fatal(err)
	}
	b.Run("fast-warm", func(b *testing.B) {
		eachIter(b, func() error { _, err := m.NMaxFor(paperGuarantee); return err })
	})
	// The warm path reads the copy-on-write bound chain without locks, so
	// concurrent admission decisions should scale with GOMAXPROCS rather
	// than serialize.
	b.Run("fast-warm-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := m.NMaxFor(paperGuarantee); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

func BenchmarkBuildTable(b *testing.B) {
	grid := benchGrid()
	b.Run("seed-cold", func(b *testing.B) {
		eachIter(b, func() error { _, err := SeedBuildTable(paperModel(b), grid); return err })
	})
	b.Run("fast-cold", func(b *testing.B) {
		eachIter(b, func() error { _, err := BuildTable(paperModel(b), grid); return err })
	})
	m := paperModel(b)
	if _, err := BuildTable(m, grid); err != nil {
		b.Fatal(err)
	}
	b.Run("fast-warm", func(b *testing.B) {
		eachIter(b, func() error { _, err := BuildTable(m, grid); return err })
	})
}

func BenchmarkGSSSweep(b *testing.B) {
	groups := []int{1, 2, 3, 4, 6, 8, 12}
	eachIter(b, func() error { _, err := paperModel(b).GSSSweep(groups, 0.01); return err })
}
