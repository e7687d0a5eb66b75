package lst

import (
	"math"
	"testing"

	"mzqos/internal/dist"
)

func TestDensityTransformMatchesGammaClosedForm(t *testing.T) {
	g := dist.Gamma{Shape: 4, Rate: 100}
	dt, err := NewDensityTransform(g.PDF, 1.0, 100, g.Mean(), g.Var())
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := NewGamma(4, 100)
	for _, s := range []float64{-50, -10, 0, 1, 20, 200} {
		got := dt.LogAt(s)
		want := cf.LogAt(s)
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("LogAt(%v) = %v, want %v", s, got, want)
		}
	}
	if !math.IsInf(dt.LogAt(-150), 1) {
		t.Error("beyond the abscissa must diverge")
	}
}

func TestDensityTransformValidation(t *testing.T) {
	if _, err := NewDensityTransform(nil, 1, 1, 0, 0); err != ErrParam {
		t.Errorf("nil pdf err = %v", err)
	}
	pdf := func(float64) float64 { return 1 }
	if _, err := NewDensityTransform(pdf, 0, 1, 0, 0); err != ErrParam {
		t.Errorf("zero upper err = %v", err)
	}
	if _, err := NewDensityTransform(pdf, 1, -1, 0, 0); err != ErrParam {
		t.Errorf("negative theta err = %v", err)
	}
}

// TestHeavyTailsHaveNoChernoffBound documents the limit of the paper's
// remark that other size laws plug into the same derivation: for Lognormal
// (and Pareto) the MGF diverges for every θ > 0, so the transform must
// declare MaxTheta = 0 and no nontrivial Chernoff bound exists. The Gamma
// moment matching of §3.2 is what makes the machinery applicable.
func TestHeavyTailsHaveNoChernoffBound(t *testing.T) {
	ln, _ := dist.LognormalFromMeanVar(0.02, 1e-4)
	dt, err := NewDensityTransform(ln.PDF, 1.0, 0, ln.Mean(), ln.Var())
	if err != nil {
		t.Fatal(err)
	}
	if dt.MaxTheta() != 0 {
		t.Fatal("heavy tail must declare MaxTheta 0")
	}
	// Any negative s diverges by declaration.
	if !math.IsInf(dt.LogAt(-0.001), 1) {
		t.Error("MGF of a declared heavy tail should be +Inf")
	}
	// The underlying truth: the truncated heavy-tail MGF grows without
	// bound as the truncation is lifted, for any fixed θ > 0. Pareto
	// makes this visible at modest θ (polynomial tail vs e^{θt}).
	pa := dist.Pareto{Xm: 0.05, Alpha: 2.5}
	theta := 5.0
	var prev float64
	growing := true
	for i, upper := range []float64{1, 8, 64} {
		v, err := NewDensityTransform(pa.PDF, upper, math.Inf(1), pa.Mean(), pa.Var())
		if err != nil {
			t.Fatal(err)
		}
		cur := v.LogAt(-theta)
		if i > 0 && cur <= prev+1e-9 {
			growing = false
		}
		prev = cur
	}
	if !growing {
		t.Error("truncated Pareto MGF should grow with the truncation point")
	}
}

func TestDensityTransformInSum(t *testing.T) {
	// A numeric transform composes with the algebra like any other.
	g := dist.Gamma{Shape: 2, Rate: 50}
	dt, err := NewDensityTransform(g.PDF, 2.0, 50, g.Mean(), g.Var())
	if err != nil {
		t.Fatal(err)
	}
	sum := NewSum(PointMass{C: 0.1}, dt)
	if math.Abs(sum.Mean()-(0.1+0.04)) > 1e-12 {
		t.Errorf("Mean = %v", sum.Mean())
	}
	got := sum.LogAt(3)
	cf, _ := NewGamma(2, 50)
	want := PointMass{C: 0.1}.LogAt(3) + cf.LogAt(3)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("LogAt = %v, want %v", got, want)
	}
}

func TestDensityTransformComplexAt(t *testing.T) {
	g := dist.Gamma{Shape: 3, Rate: 40}
	dt, _ := NewDensityTransform(g.PDF, 2.0, 40, g.Mean(), g.Var())
	cf, _ := NewGamma(3, 40)
	s := complex(5, 2)
	got := dt.At(s)
	want := cf.At(s)
	if math.Abs(real(got)-real(want)) > 1e-4 || math.Abs(imag(got)-imag(want)) > 1e-4 {
		t.Errorf("At(%v) = %v, want %v", s, got, want)
	}
}
