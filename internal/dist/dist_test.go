package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformBasics(t *testing.T) {
	u, err := NewUniform(0, 0.00834)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Mean()-0.00417) > 1e-12 {
		t.Errorf("Mean = %v", u.Mean())
	}
	want := 0.00834 * 0.00834 / 12
	if math.Abs(u.Var()-want) > 1e-15 {
		t.Errorf("Var = %v, want %v", u.Var(), want)
	}
	if u.CDF(-1) != 0 || u.CDF(1) != 1 {
		t.Error("CDF outside support wrong")
	}
	if math.Abs(u.CDF(0.00417)-0.5) > 1e-12 {
		t.Errorf("CDF(mid) = %v", u.CDF(0.00417))
	}
	q, err := u.Quantile(0.25)
	if err != nil || math.Abs(q-0.002085) > 1e-12 {
		t.Errorf("Quantile(0.25) = %v, %v", q, err)
	}
}

func TestUniformBadParams(t *testing.T) {
	if _, err := NewUniform(1, 1); err != ErrParam {
		t.Errorf("NewUniform(1,1) err = %v", err)
	}
	if _, err := NewUniform(2, 1); err != ErrParam {
		t.Errorf("NewUniform(2,1) err = %v", err)
	}
}

func TestUniformLogMGF(t *testing.T) {
	u := Uniform{A: 0, B: 2}
	// MGF = (e^{2s} - 1)/(2s)
	for _, s := range []float64{-2, -0.5, 0.3, 1, 4} {
		want := math.Log((math.Exp(2*s) - 1) / (2 * s))
		if math.Abs(u.LogMGF(s)-want) > 1e-10 {
			t.Errorf("LogMGF(%v) = %v, want %v", s, u.LogMGF(s), want)
		}
	}
	// Removable singularity at 0: MGF(0)=1 → log MGF = 0.
	if math.Abs(u.LogMGF(0)) > 1e-12 {
		t.Errorf("LogMGF(0) = %v, want 0", u.LogMGF(0))
	}
	if math.Abs(u.LogMGF(1e-10)-1e-10) > 1e-12 {
		t.Errorf("LogMGF near 0 = %v", u.LogMGF(1e-10))
	}
	// Shifted support.
	us := Uniform{A: 1, B: 3}
	s := 0.7
	want := math.Log((math.Exp(3*s) - math.Exp(1*s)) / (2 * s))
	if math.Abs(us.LogMGF(s)-want) > 1e-10 {
		t.Errorf("shifted LogMGF = %v, want %v", us.LogMGF(s), want)
	}
}

func TestUniformSample(t *testing.T) {
	u := Uniform{A: 2, B: 5}
	rng := NewRand(1, 2)
	var w Welford
	for i := 0; i < 100000; i++ {
		x := u.Sample(rng)
		if x < 2 || x > 5 {
			t.Fatalf("sample %v outside support", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-3.5) > 0.01 {
		t.Errorf("sample mean = %v", w.Mean())
	}
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 0.10932}
	if d.Mean() != 0.10932 || d.Var() != 0 {
		t.Error("moments wrong")
	}
	if d.CDF(0.1) != 0 || d.CDF(0.10932) != 1 || d.CDF(1) != 1 {
		t.Error("CDF step wrong")
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
	l, _ := NewLognormal(1, 0.5)
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
	p, _ := NewPareto(1, 3)
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
	inf, _ := NewPareto(1, 0.5)
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
	dists := []Distribution{
		Gamma{Shape: 4, Rate: 0.02},
		Uniform{A: 0, B: 1},
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

func TestStdHelper(t *testing.T) {
	if Std(Gamma{Shape: 4, Rate: 2}) != 1 {
		t.Error("Std wrong")
	}
	if Std(Deterministic{Value: 5}) != 0 {
		t.Error("Std of constant wrong")
	}
}
