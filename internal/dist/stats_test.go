package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := meanOf(xs)
	vr := varOf(xs, mean)
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-vr) > 1e-12 {
		t.Errorf("Var = %v, want %v", w.Var(), vr)
	}
	if w.N() != int64(len(xs)) {
		t.Errorf("N = %v", w.N())
	}
}

func TestWelfordMerge(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) < 4 {
			return true
		}
		var whole Welford
		for _, x := range xs {
			whole.Add(x)
		}
		k := len(xs) / 2
		var a, b Welford
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		scale := math.Max(1, math.Abs(whole.Mean()))
		return math.Abs(a.Mean()-whole.Mean()) < 1e-8*scale &&
			math.Abs(a.Var()-whole.Var()) < 1e-6*math.Max(1, whole.Var())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	b.Add(2)
	b.Add(4)
	a.Merge(b)
	if a.Mean() != 3 || a.N() != 2 {
		t.Errorf("merge into empty: mean=%v n=%v", a.Mean(), a.N())
	}
	var c Welford
	a.Merge(c) // merging empty is a no-op
	if a.Mean() != 3 || a.N() != 2 {
		t.Errorf("merge of empty changed state")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 100, 1.96)
	if lo != 0 {
		t.Errorf("lo = %v, want 0", lo)
	}
	if hi < 0.01 || hi > 0.06 {
		t.Errorf("hi = %v, want ≈0.037 (rule of three ballpark)", hi)
	}
	lo, hi = WilsonInterval(50, 100, 1.96)
	if lo > 0.5 || hi < 0.5 {
		t.Errorf("interval [%v,%v] does not cover 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide: [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("degenerate interval = [%v,%v]", lo, hi)
	}
}

func TestEmpirical(t *testing.T) {
	e, err := NewEmpirical([]float64{5, 1, 3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 3 {
		t.Errorf("Mean = %v", e.Mean())
	}
	if math.Abs(e.Var()-2.5) > 1e-12 {
		t.Errorf("Var = %v, want 2.5", e.Var())
	}
	q, err := e.Quantile(0.5)
	if err != nil || q != 3 {
		t.Errorf("median = %v", q)
	}
	if _, err := NewEmpirical(nil); err != ErrParam {
		t.Errorf("empty sample err = %v", err)
	}
	if _, err := NewEmpirical([]float64{1, math.NaN()}); err != ErrParam {
		t.Errorf("NaN sample err = %v", err)
	}
}

func TestEmpiricalSample(t *testing.T) {
	e, _ := NewEmpirical([]float64{1, 2, 3})
	rng := NewRand(5, 6)
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		seen[e.Sample(rng)] = true
	}
	if len(seen) != 3 {
		t.Errorf("bootstrap sampling did not cover the sample: %v", seen)
	}
}
