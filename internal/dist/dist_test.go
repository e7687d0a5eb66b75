package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 0.10932}
	if d.Mean() != 0.10932 || d.Var() != 0 {
		t.Error("moments wrong")
	}
	if d.Sample(nil) != 0.10932 {
		t.Error("Sample wrong")
	}
	q, err := d.Quantile(0.5)
	if err != nil || q != 0.10932 {
		t.Errorf("Quantile = %v, %v", q, err)
	}
}

func TestLognormalMomentMatch(t *testing.T) {
	l, err := LognormalFromMeanVar(204800, 104857600*100) // heavy spread
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Mean()-204800) > 1e-6*204800 {
		t.Errorf("Mean = %v", l.Mean())
	}
	if math.Abs(l.Var()-104857600*100) > 1e-6*104857600*100 {
		t.Errorf("Var = %v", l.Var())
	}
}

func TestLognormalCDFQuantile(t *testing.T) {
	l := Lognormal{Mu: 1, Sigma: 0.5}
	for _, p := range []float64{0.05, 0.5, 0.95} {
		x, err := l.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l.CDF(x)-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, l.CDF(x))
		}
	}
	if l.CDF(0) != 0 || l.PDF(-1) != 0 {
		t.Error("support wrong")
	}
}

func TestParetoMomentMatch(t *testing.T) {
	p, err := ParetoFromMeanVar(204800, 102400.0*102400.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-204800) > 1e-6*204800 {
		t.Errorf("Mean = %v", p.Mean())
	}
	if math.Abs(p.Var()-102400.0*102400.0) > 1e-5*102400.0*102400.0 {
		t.Errorf("Var = %v (alpha=%v)", p.Var(), p.Alpha)
	}
	if p.Alpha <= 2 {
		t.Errorf("alpha = %v, want > 2 for finite variance", p.Alpha)
	}
}

func TestParetoBasics(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 3}
	if math.Abs(p.Mean()-1.5) > 1e-14 {
		t.Errorf("Mean = %v", p.Mean())
	}
	if math.Abs(p.CDF(2)-(1-0.125)) > 1e-14 {
		t.Errorf("CDF(2) = %v", p.CDF(2))
	}
	q, err := p.Quantile(0.875)
	if err != nil || math.Abs(q-2) > 1e-12 {
		t.Errorf("Quantile(0.875) = %v", q)
	}
	inf := Pareto{Xm: 1, Alpha: 0.5}
	if !math.IsInf(inf.Mean(), 1) || !math.IsInf(inf.Var(), 1) {
		t.Error("infinite moments not reported")
	}
}

func TestHeavyTailSampleMoments(t *testing.T) {
	rng := NewRand(3, 9)
	l, _ := LognormalFromMeanVar(200, 100*100)
	p, _ := ParetoFromMeanVar(200, 100*100)
	var wl, wp Welford
	for i := 0; i < 400000; i++ {
		wl.Add(l.Sample(rng))
		wp.Add(p.Sample(rng))
	}
	if math.Abs(wl.Mean()-200) > 2 {
		t.Errorf("lognormal sample mean = %v", wl.Mean())
	}
	if math.Abs(wp.Mean()-200) > 3 {
		t.Errorf("pareto sample mean = %v", wp.Mean())
	}
}

// Property: for all distributions, Quantile∘CDF ≈ id on the support.
func TestQuantileCDFConsistency(t *testing.T) {
	dists := []interface {
		Quantile(p float64) (float64, error)
		CDF(x float64) float64
	}{
		Gamma{Shape: 4, Rate: 0.02},
		Lognormal{Mu: 0, Sigma: 1},
		Pareto{Xm: 1, Alpha: 3},
	}
	prop := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p < 1e-6 || p > 1-1e-6 {
			return true
		}
		for _, d := range dists {
			x, err := d.Quantile(p)
			if err != nil {
				return false
			}
			if math.Abs(d.CDF(x)-p) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFromMeanVarRejectsNonFinite: a law matched to a moment that is not a
// finite positive number, or whose parameters overflow, is ErrParam, never
// a degenerate law with a nil error.
func TestFromMeanVarRejectsNonFinite(t *testing.T) {
	from := map[string]func(mean, variance float64) (Distribution, error){
		"Gamma":     func(m, v float64) (Distribution, error) { return GammaFromMeanVar(m, v) },
		"Lognormal": func(m, v float64) (Distribution, error) { return LognormalFromMeanVar(m, v) },
		"Pareto":    func(m, v float64) (Distribution, error) { return ParetoFromMeanVar(m, v) },
	}
	inf, nan := math.Inf(1), math.NaN()
	for name, f := range from {
		for _, mv := range [][2]float64{
			{inf, 1}, {1, inf}, {inf, inf}, {-inf, 1}, {nan, 1}, {1, nan},
			{0, 1}, {1, 0}, {-1, 1}, {1, -1}, {1e200, 1e-200},
		} {
			if d, err := f(mv[0], mv[1]); err != ErrParam {
				t.Errorf("%sFromMeanVar(%v, %v) = %+v, %v; want ErrParam", name, mv[0], mv[1], d, err)
			}
		}
	}
}
