package numeric

import (
	"math"
	"testing"
)

func TestSimpsonPolynomial(t *testing.T) {
	// ∫₀¹ x³ dx = 1/4 (Simpson is exact on cubics per panel).
	v, err := Simpson(func(x float64) float64 { return x * x * x }, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("Simpson: %v", err)
	}
	if math.Abs(v-0.25) > 1e-12 {
		t.Errorf("Simpson cubic = %v, want 0.25", v)
	}
}

func TestSimpsonExp(t *testing.T) {
	v, err := Simpson(math.Exp, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("Simpson: %v", err)
	}
	want := math.E - 1
	if math.Abs(v-want) > 1e-10 {
		t.Errorf("Simpson exp = %v, want %v", v, want)
	}
}

func TestSimpsonPeaked(t *testing.T) {
	// Sharply peaked Gaussian: ∫ over [-1,1] of N(0, 0.01) density ≈ 1.
	sigma := 0.01
	f := func(x float64) float64 {
		return math.Exp(-x*x/(2*sigma*sigma)) / (sigma * math.Sqrt(2*math.Pi))
	}
	v, err := Simpson(f, -1, 1, 1e-10)
	if err != nil {
		t.Fatalf("Simpson: %v", err)
	}
	if math.Abs(v-1) > 1e-8 {
		t.Errorf("Simpson peaked Gaussian = %v, want 1", v)
	}
}

func TestSimpsonEmptyInterval(t *testing.T) {
	v, err := Simpson(math.Exp, 2, 2, 0)
	if err != nil || v != 0 {
		t.Errorf("Simpson empty = %v, %v; want 0, nil", v, err)
	}
}

func TestSimpsonInvalid(t *testing.T) {
	if _, err := Simpson(math.Exp, 3, 2, 0); err != ErrInvalidInterval {
		t.Errorf("Simpson err = %v, want ErrInvalidInterval", err)
	}
}

func TestGaussLegendre(t *testing.T) {
	// Exact for polynomials up to degree 39.
	f := func(x float64) float64 { return 5*math.Pow(x, 9) - 3*x*x + 1 }
	got := GaussLegendre(f, -2, 3)
	// ∫ 5x⁹ dx = x¹⁰/2; ∫ -3x² dx = -x³; ∫ 1 dx = x
	want := (math.Pow(3, 10)-math.Pow(-2, 10))/2 - (27 - (-8)) + 5
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Errorf("GaussLegendre = %v, want %v", got, want)
	}
}

func TestCompositeGL(t *testing.T) {
	// ∫₀^π sin = 2
	got := CompositeGL(math.Sin, 0, math.Pi, 4)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("CompositeGL sin = %v, want 2", got)
	}
	// n < 1 falls back to a single panel.
	got = CompositeGL(math.Sin, 0, math.Pi, 0)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("CompositeGL(n=0) sin = %v, want 2", got)
	}
}

func TestSimpsonAgreesWithGL(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x) }
	s, err := Simpson(f, 0, 5, 1e-12)
	if err != nil {
		t.Fatalf("Simpson: %v", err)
	}
	g := CompositeGL(f, 0, 5, 8)
	if math.Abs(s-g) > 1e-9 {
		t.Errorf("Simpson %v and CompositeGL %v disagree", s, g)
	}
}
