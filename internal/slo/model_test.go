package slo

import (
	"math/rand/v2"
	"testing"
)

// Budgets of the Bernoulli model, on the paper's Quantum Viking disk at a
// one-second round: bLate26 is b_late(26) (`mzqos bounds -n 26`), the
// quoted bound of a server admitting its N_max = 26 streams per disk, and
// qFigure1 is Figure 1's simulated late-round rate at N = 29, 3.8 times
// that budget.
const (
	bLate26  = 0.00361
	qFigure1 = 0.0138
)

// modelRun is what the late target's alert did in one Bernoulli run.
type modelRun struct {
	fired     int64   // Inactive/Pending/Resolved → Firing transitions
	firing    float64 // share of rounds that ended in Firing
	firstFire int     // first round that ended in Firing, -1 if none
}

// firesPer10k is the run's firing rate per 10 000 rounds.
func (m modelRun) firesPer10k(rounds int) float64 {
	return float64(m.fired) * 1e4 / float64(rounds)
}

// bernoulliModel drives a default-configured auditor for `rounds` rounds
// in which every one of `disks` disks is loaded and each disk-round is
// late independently with probability q, the budget being bLate26: the
// promise P[T_N ≥ t] ≤ b_late read as a per-disk-round coin.
func bernoulliModel(t *testing.T, disks, rounds int, q float64, seed uint64) modelRun {
	t.Helper()
	aud, err := New(Config{}, disks)
	if err != nil {
		t.Fatal(err)
	}
	aud.SetBudgets(bLate26, bLate26)
	rng := rand.New(rand.NewPCG(seed, 0x510))
	run := modelRun{firstFire: -1}
	var inFiring int
	for r := 0; r < rounds; r++ {
		for d := 0; d < disks; d++ {
			aud.ObserveDisk(d, rng.Float64() < q, 0, 0)
		}
		ev := aud.EndRound()
		if ev.Late.State == Firing {
			inFiring++
			if run.firstFire < 0 {
				run.firstFire = r
			}
		}
	}
	run.fired = targetByName(t, aud.Status(), TargetLate).FiredTotal
	run.firing = float64(inFiring) / float64(rounds)
	return run
}

// TestBernoulliModelAlertRates states the late alert's firing rates on a
// server whose disk-rounds are late exactly as often as the budget allows
// (every firing is a false alarm) and on one late 3.8 times as often,
// which is one incident lasting the whole run and so must fire about
// once. The burn-rate rule this test replaced (both windows at ≥ 2× the
// budget, resolved after 8 rounds below it) fired falsely 168 and 23
// times at this seed, 8.40 and 1.15 per 10 000 rounds on one disk and
// four: a rate that depended on the disk count. The level-Alpha test must
// fire less at both, and on four disks at 3.8× the budget within the
// first fast window, and then hold the incident as one firing.
func TestBernoulliModelAlertRates(t *testing.T) {
	const rounds = 200_000
	for _, tc := range []struct {
		disks     int
		q         float64
		maxFired  int64 // at this seed
		burnFired int64 // the burn-rate rule's, at this seed
	}{
		{1, bLate26, 0, 168},
		{4, bLate26, 0, 23},
		{4, qFigure1, 2, 218},
	} {
		run := bernoulliModel(t, tc.disks, rounds, tc.q, 42)
		t.Logf("D=%d q=%v: %d fires, %.2f per 10 000 rounds, firing %.1f%% of rounds, first at round %d",
			tc.disks, tc.q, run.fired, run.firesPer10k(rounds), 100*run.firing, run.firstFire)
		if run.fired > tc.maxFired {
			t.Errorf("D=%d q=%v: fired %d times in %d rounds, want at most %d",
				tc.disks, tc.q, run.fired, rounds, tc.maxFired)
		}
		if tc.q == bLate26 && run.fired >= tc.burnFired {
			t.Errorf("D=%d at the budget: %d false fires, not below the burn-rate rule's %d",
				tc.disks, run.fired, tc.burnFired)
		}
		if tc.q == qFigure1 && (run.firstFire < 0 || run.firstFire >= DefaultFastWindow) {
			t.Errorf("D=%d at 3.8x the budget: first fired at round %d, want within the first %d",
				tc.disks, run.firstFire, DefaultFastWindow)
		}
	}
}
