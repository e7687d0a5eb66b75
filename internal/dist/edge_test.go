package dist

import (
	"math"
	"testing"
)

func TestGammaPDFEdgeCases(t *testing.T) {
	// Shape < 1: density diverges at 0.
	g := Gamma{Shape: 0.5, Rate: 1}
	if !math.IsInf(g.PDF(0), 1) {
		t.Errorf("shape<1 PDF(0) = %v, want +Inf", g.PDF(0))
	}
	// Shape = 1 (exponential): density at 0 equals the rate.
	e := Gamma{Shape: 1, Rate: 3}
	if e.PDF(0) != 3 {
		t.Errorf("shape=1 PDF(0) = %v, want 3", e.PDF(0))
	}
	// Shape > 1: density vanishes at 0 and below.
	h := Gamma{Shape: 4, Rate: 1}
	if h.PDF(0) != 0 || h.PDF(-1) != 0 {
		t.Error("shape>1 PDF at/below 0 should be 0")
	}
}

func TestGammaCDFQuantileDomains(t *testing.T) {
	g := Gamma{Shape: 4, Rate: 1}
	if g.CDF(-5) != 0 || g.CDF(0) != 0 {
		t.Error("CDF below support should be 0")
	}
	if _, err := g.Quantile(0); err != ErrDomain {
		t.Errorf("Quantile(0) err = %v", err)
	}
	if _, err := g.Quantile(1); err != ErrDomain {
		t.Errorf("Quantile(1) err = %v", err)
	}
}

func TestLognormalParetoPDFs(t *testing.T) {
	l := Lognormal{Mu: 0, Sigma: 1}
	// Standard lognormal density at 1: 1/√(2π).
	if math.Abs(l.PDF(1)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Errorf("lognormal PDF(1) = %v", l.PDF(1))
	}
	if l.PDF(0) != 0 || l.PDF(-1) != 0 {
		t.Error("lognormal support wrong")
	}
	p := Pareto{Xm: 2, Alpha: 3}
	// f(x) = α·xm^α/x^{α+1}: at x=2, 3·8/16 = 1.5.
	if math.Abs(p.PDF(2)-1.5) > 1e-12 {
		t.Errorf("pareto PDF(xm) = %v, want 1.5", p.PDF(2))
	}
	if p.PDF(1.9) != 0 {
		t.Error("pareto below xm should be 0")
	}
	if _, err := p.Quantile(0); err != ErrDomain {
		t.Errorf("pareto Quantile(0) err = %v", err)
	}
}

func TestEmpiricalPDFAndQuantileEdges(t *testing.T) {
	e, _ := NewEmpirical([]float64{1, 2, 3, 4})
	if e.PDF(2) != 0 {
		t.Error("empirical PDF is defined as 0")
	}
	if _, err := e.Quantile(0); err != ErrDomain {
		t.Errorf("Quantile(0) err = %v", err)
	}
	q, err := e.Quantile(0.999999)
	if err != nil || q > 4 {
		t.Errorf("near-1 quantile = %v, %v", q, err)
	}
	single, _ := NewEmpirical([]float64{7})
	q, err = single.Quantile(0.5)
	if err != nil || q != 7 {
		t.Errorf("single-sample quantile = %v, %v", q, err)
	}
	if single.Var() != 0 {
		t.Errorf("single-sample variance = %v", single.Var())
	}
}

func TestWelfordVarSmallN(t *testing.T) {
	var w Welford
	if w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator moments should be 0")
	}
	w.Add(5)
	if w.Var() != 0 {
		t.Error("single-sample variance should be 0")
	}
}
