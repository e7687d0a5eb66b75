package slo

import (
	"math/rand/v2"
	"testing"

	"mzqos/internal/chernoff"
)

// roundFunc is one full audited round: four disk observations plus the
// end-of-round evaluation (window rotation, the windows' tests and the
// alert state machines for both targets).
type roundFunc func(aud *Auditor)

// healthyRound: every disk on time with 26 fragments and no glitch.
func healthyRound(aud *Auditor) {
	for d := 0; d < 4; d++ {
		aud.ObserveDisk(d, false, 26, 0)
	}
	aud.EndRound()
}

// firingRound returns a round of a server far over its budgets, whose
// fragment count changes every round, so both glitch windows' populations
// move and each of the four windows' counts sits above its mean.
func firingRound() roundFunc {
	r := 0
	return func(aud *Auditor) {
		r++
		for d := 0; d < 4; d++ {
			n := 20 + (r*7+d)%13
			aud.ObserveDisk(d, (r+d)%3 == 0, n, n/4)
		}
		aud.EndRound()
	}
}

// warmAuditor builds a 4-disk auditor and runs round until both windows
// are fully populated, so what follows is the steady state: ring slots
// recycling in place with no growth anywhere.
func warmAuditor(tb testing.TB, round roundFunc) *Auditor {
	tb.Helper()
	aud, err := New(Config{}, 4)
	if err != nil {
		tb.Fatal(err)
	}
	aud.SetBudgets(1e-3, 1e-4)
	for r := 0; r < DefaultSlowWindow+8; r++ {
		round(aud)
	}
	return aud
}

// Step calls ObserveDisk once per loaded disk and EndRound once per
// round; neither may allocate once the windows are full, on a healthy
// auditor or on one whose alerts are firing.
func TestAuditAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round roundFunc
		state State
	}{
		{"healthy", healthyRound, Inactive},
		{"firing", firingRound(), Firing},
	} {
		aud := warmAuditor(t, tc.round)
		for _, ts := range aud.Status().Targets {
			if ts.State != tc.state {
				t.Fatalf("%s: target %s is %v, want %v", tc.name, ts.Target, ts.State, tc.state)
			}
		}
		if allocs := testing.AllocsPerRun(1000, func() { aud.ObserveDisk(1, false, 26, 0) }); allocs != 0 {
			t.Errorf("%s: ObserveDisk allocates %v per call, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(1000, func() { tc.round(aud) }); allocs != 0 {
			t.Errorf("%s: an audited round allocates %v, want 0", tc.name, allocs)
		}
	}
}

// TestCritCacheMatchesDirect: whatever populations a window passes
// through, and across budget changes, the cached test answers exactly
// what the critical count computed afresh answers.
func TestCritCacheMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 11))
	var c critCache
	budget := 1.72e-4
	n := int64(50000)
	for i := 0; i < 20000; i++ {
		if i%5000 == 0 {
			budget = []float64{1.72e-4, 3.61e-3, 0.05, 0}[i/5000]
			c = critCache{}
		}
		n += int64(rng.IntN(401)) - 200
		crit := chernoff.BinomialCritical(n, budget, Alpha)
		k := crit - 2 + int64(rng.IntN(5))
		if k < 0 {
			k = 0
		}
		if got, want := c.rejects(Count{k, n}, budget), k >= crit; got != want {
			t.Fatalf("step %d: n=%d k=%d budget=%v: cache says %v, crit %d says %v (cache %+v)",
				i, n, k, budget, got, crit, want, c)
		}
	}
}

func BenchmarkObserveDisk(b *testing.B) {
	aud := warmAuditor(b, healthyRound)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud.ObserveDisk(i&3, false, 26, 0)
	}
}

func BenchmarkAuditRound(b *testing.B) {
	for _, bc := range []struct {
		name  string
		round roundFunc
	}{
		{"healthy", healthyRound},
		{"firing", firingRound()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			aud := warmAuditor(b, bc.round)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.round(aud)
			}
		})
	}
}
