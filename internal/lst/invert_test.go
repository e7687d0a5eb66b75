package lst

import (
	"math"
	"testing"

	"mzqos/internal/dist"
)

func TestInvertCDFExponential(t *testing.T) {
	// Exponential(λ) is Gamma(1, λ); CDF = 1 - e^{-λx}.
	g, _ := NewGamma(1, 2)
	for _, x := range []float64{0.1, 0.5, 1, 2} {
		got := InvertCDF(g, x, 48)
		want := 1 - math.Exp(-2*x)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("InvertCDF exp at %v = %v, want %v", x, got, want)
		}
	}
}

func TestInvertCDFGamma(t *testing.T) {
	tr, _ := NewGamma(4, 0.02)
	d := dist.Gamma{Shape: 4, Rate: 0.02}
	for _, x := range []float64{50, 150, 200, 400, 600} {
		got := InvertCDF(tr, x, 48)
		want := d.CDF(x)
		if math.Abs(got-want) > 1e-7 {
			t.Errorf("InvertCDF gamma at %v = %v, want %v", x, got, want)
		}
	}
}

func TestInvertCDFPointMassSum(t *testing.T) {
	// Constant + Exponential: F(x) = 1 - e^{-λ(x-c)} for x > c.
	c := 0.5
	lambda := 3.0
	g, _ := NewGamma(1, lambda)
	s := NewSum(PointMass{C: c}, g)
	for _, x := range []float64{0.6, 1, 2} {
		got := InvertCDF(s, x, 64)
		want := 1 - math.Exp(-lambda*(x-c))
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("InvertCDF shifted exp at %v = %v, want %v", x, got, want)
		}
	}
}

func TestInvertCDFEdge(t *testing.T) {
	g, _ := NewGamma(2, 1)
	if InvertCDF(g, 0, 48) != 0 {
		t.Error("CDF at 0 should be 0")
	}
	if InvertCDF(g, -1, 48) != 0 {
		t.Error("CDF at negative x should be 0")
	}
	// Default node count path (m <= 0).
	if v := InvertCDF(g, 2, 0); v <= 0 || v >= 1 {
		t.Errorf("default-m inversion = %v", v)
	}
}

func TestInvertRoundServiceTime(t *testing.T) {
	// A full round transform (like eq. 3.1.4) against Monte-Carlo CDF.
	seek := PointMass{C: 0.10932}
	rotU, _ := NewUniform(0, 0.00834)
	trG, _ := NewGamma(4, 183.99)
	n := 27
	rotN, _ := NewIID(rotU, n)
	trN, _ := NewIID(trG, n)
	total := NewSum(seek, rotN, trN)

	rng := dist.NewRand(42, 43)
	trD := dist.Gamma{Shape: 4, Rate: 183.99}
	const trials = 60000
	var count int
	x := total.Mean() + 1.5*math.Sqrt(total.Var())
	for i := 0; i < trials; i++ {
		sum := 0.10932
		for k := 0; k < n; k++ {
			sum += 0.00834*rng.Float64() + trD.Sample(rng)
		}
		if sum <= x {
			count++
		}
	}
	mc := float64(count) / trials
	inv := InvertCDF(total, x, 64)
	if math.Abs(inv-mc) > 0.01 {
		t.Errorf("inversion %v vs Monte-Carlo %v", inv, mc)
	}
	if tail := TailFromInversion(total, x, 64); math.Abs(tail-(1-inv)) > 1e-12 {
		t.Errorf("TailFromInversion inconsistent")
	}
}
