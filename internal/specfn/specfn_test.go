package specfn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}
	cases := []float64{0.1, 0.5, 1, 2, 5, 10}
	for _, x := range cases {
		p, err := GammaP(1, x)
		if err != nil {
			t.Fatalf("GammaP(1,%v): %v", x, err)
		}
		want := 1 - math.Exp(-x)
		if math.Abs(p-want) > 1e-13 {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, p, want)
		}
	}
}

func TestGammaPHalfInteger(t *testing.T) {
	// P(1/2, x) = erf(sqrt(x))
	for _, x := range []float64{0.01, 0.25, 1, 4, 9} {
		p, err := GammaP(0.5, x)
		if err != nil {
			t.Fatalf("GammaP(0.5,%v): %v", x, err)
		}
		want := math.Erf(math.Sqrt(x))
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, p, want)
		}
	}
}

func TestGammaPChiSquared(t *testing.T) {
	// Chi-squared(8 df) 0.99 quantile is 20.090235...; P(4, 20.090235/2) ≈ 0.99.
	p, err := GammaP(4, 20.090235/2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.99) > 1e-6 {
		t.Errorf("GammaP(4, 10.045) = %v, want 0.99", p)
	}
}

func TestGammaPEdges(t *testing.T) {
	if p, err := GammaP(2, 0); err != nil || p != 0 {
		t.Errorf("GammaP(2,0) = %v,%v; want 0,nil", p, err)
	}
	if p, err := GammaP(2, math.Inf(1)); err != nil || p != 1 {
		t.Errorf("GammaP(2,inf) = %v,%v; want 1,nil", p, err)
	}
	if _, err := GammaP(-1, 1); err != ErrDomain {
		t.Errorf("GammaP(-1,1) err = %v, want ErrDomain", err)
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 4, 10, 100} {
		for _, p := range []float64{1e-6, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.9999} {
			x, err := GammaPInv(a, p)
			if err != nil {
				t.Fatalf("GammaPInv(%v,%v): %v", a, p, err)
			}
			back, err := GammaP(a, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(back-p) > 1e-9 {
				t.Errorf("GammaP(GammaPInv(%v,%v)) = %v, want %v", a, p, back, p)
			}
		}
	}
}

func TestGammaPInvEdges(t *testing.T) {
	if x, err := GammaPInv(3, 0); err != nil || x != 0 {
		t.Errorf("GammaPInv(3,0) = %v,%v; want 0,nil", x, err)
	}
	if _, err := GammaPInv(3, 1); err != ErrDomain {
		t.Errorf("GammaPInv(3,1) err = %v, want ErrDomain", err)
	}
	if _, err := GammaPInv(0, 0.5); err != ErrDomain {
		t.Errorf("GammaPInv(0,0.5) err = %v, want ErrDomain", err)
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		got := NormCDF(c.z)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	prop := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p <= 1e-10 || p >= 1-1e-10 {
			return true
		}
		z, err := NormQuantile(p)
		if err != nil {
			return false
		}
		return math.Abs(NormCDF(z)-p) < 1e-11
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormQuantileTails(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-8, 1e-4, 0.9999, 1 - 1e-8} {
		z, err := NormQuantile(p)
		if err != nil {
			t.Fatalf("NormQuantile(%v): %v", p, err)
		}
		if math.Abs(NormCDF(z)-p) > 1e-11*math.Max(1, 1/p) {
			t.Errorf("NormCDF(NormQuantile(%v)) = %v", p, NormCDF(z))
		}
	}
	if _, err := NormQuantile(0); err != ErrDomain {
		t.Errorf("NormQuantile(0) err = %v, want ErrDomain", err)
	}
	if _, err := NormQuantile(1); err != ErrDomain {
		t.Errorf("NormQuantile(1) err = %v, want ErrDomain", err)
	}
}

// Property: P(a,·) is nondecreasing in x.
func TestGammaPMonotone(t *testing.T) {
	prop := func(aa, x1, x2 float64) bool {
		a := 0.1 + math.Abs(math.Mod(aa, 20))
		u := math.Abs(math.Mod(x1, 50))
		v := math.Abs(math.Mod(x2, 50))
		if u > v {
			u, v = v, u
		}
		pu, err1 := GammaP(a, u)
		pv, err2 := GammaP(a, v)
		if err1 != nil || err2 != nil {
			return false
		}
		return pu <= pv+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
