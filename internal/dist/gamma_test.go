package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaMoments(t *testing.T) {
	g := Gamma{Shape: 4, Rate: 2}
	if g.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", g.Mean())
	}
	if g.Var() != 1 {
		t.Errorf("Var = %v, want 1", g.Var())
	}
}

func TestGammaFromMeanVar(t *testing.T) {
	// The paper's fragment-size example: mean 200 KB, sd 100 KB → shape 4.
	g, err := GammaFromMeanVar(200, 100*100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Shape-4) > 1e-12 {
		t.Errorf("Shape = %v, want 4", g.Shape)
	}
	if math.Abs(g.Rate-0.02) > 1e-12 {
		t.Errorf("Rate = %v, want 0.02", g.Rate)
	}
	if math.Abs(g.Mean()-200) > 1e-9 || math.Abs(g.Var()-10000) > 1e-6 {
		t.Errorf("moments not matched: mean=%v var=%v", g.Mean(), g.Var())
	}
}

func TestGammaBadParams(t *testing.T) {
	if _, err := GammaFromMeanVar(-1, 1); err != ErrParam {
		t.Errorf("GammaFromMeanVar(-1,1) err = %v, want ErrParam", err)
	}
}

func TestGammaPDFIntegratesToOne(t *testing.T) {
	g := Gamma{Shape: 4, Rate: 0.02}
	// Riemann sum over a wide range.
	var sum float64
	dx := 0.5
	for x := dx / 2; x < 2000; x += dx {
		sum += g.PDF(x) * dx
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("PDF integrates to %v, want 1", sum)
	}
}

func TestGammaExponentialSpecialCase(t *testing.T) {
	// Gamma(shape=1, rate=λ) is the exponential law: density λe^{-λx},
	// distribution function 1 - e^{-λx}.
	const lambda = 3.0
	g := Gamma{Shape: 1, Rate: lambda}
	for _, x := range []float64{0.01, 0.1, 0.5, 1, 2} {
		if pdf := lambda * math.Exp(-lambda*x); math.Abs(g.PDF(x)-pdf) > 1e-12 {
			t.Errorf("PDF mismatch at %v: %v vs %v", x, g.PDF(x), pdf)
		}
		if cdf := -math.Expm1(-lambda * x); math.Abs(g.CDF(x)-cdf) > 1e-12 {
			t.Errorf("CDF mismatch at %v: %v vs %v", x, g.CDF(x), cdf)
		}
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	g := Gamma{Shape: 4, Rate: 0.02}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99} {
		x, err := g.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.CDF(x)-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, g.CDF(x))
		}
	}
}

func TestGamma99Percentile(t *testing.T) {
	// Shape 4: the 0.99 quantile of Gamma(4, 1) is chi2(8df,0.99)/2 ≈ 10.045.
	g := Gamma{Shape: 4, Rate: 1}
	q, err := g.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-10.045) > 0.01 {
		t.Errorf("Gamma(4,1) 99-pct = %v, want ≈10.045", q)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := NewRand(7, 11)
	for _, g := range []Gamma{{Shape: 4, Rate: 0.02}, {Shape: 0.5, Rate: 2}, {Shape: 20, Rate: 1}} {
		var w Welford
		for i := 0; i < 200000; i++ {
			w.Add(g.Sample(rng))
		}
		if math.Abs(w.Mean()-g.Mean()) > 0.02*g.Mean() {
			t.Errorf("shape %v: sample mean %v vs %v", g.Shape, w.Mean(), g.Mean())
		}
		if math.Abs(w.Var()-g.Var()) > 0.06*g.Var() {
			t.Errorf("shape %v: sample var %v vs %v", g.Shape, w.Var(), g.Var())
		}
	}
}

// Property: CDF is monotone and in [0,1]; quantile inverts CDF.
func TestGammaCDFProperties(t *testing.T) {
	prop := func(sh, rt, x1, x2 float64) bool {
		shape := 0.2 + math.Abs(math.Mod(sh, 30))
		rate := 0.01 + math.Abs(math.Mod(rt, 10))
		g := Gamma{Shape: shape, Rate: rate}
		a := math.Abs(math.Mod(x1, 100))
		b := math.Abs(math.Mod(x2, 100))
		if a > b {
			a, b = b, a
		}
		ca, cb := g.CDF(a), g.CDF(b)
		return ca >= 0 && cb <= 1 && ca <= cb+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
