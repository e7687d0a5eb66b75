package specfn

import (
	"math"
	"testing"
)

// FuzzGammaPInvRoundTrip checks GammaP(a, GammaPInv(a, p)) ≈ p over
// arbitrary parameters.
func FuzzGammaPInvRoundTrip(f *testing.F) {
	f.Add(4.0, 0.99)
	f.Add(0.5, 0.01)
	f.Add(100.0, 0.5)
	f.Fuzz(func(t *testing.T, a, p float64) {
		if math.IsNaN(a) || math.IsNaN(p) {
			return
		}
		a = 1e-2 + math.Abs(math.Mod(a, 1e3))
		p = math.Mod(math.Abs(p), 1)
		if p <= 1e-12 || p >= 1-1e-12 {
			return
		}
		// For a small shape the quantile of a small p can lie below the
		// smallest normal float64, where no x reads back as p.
		if low, err := GammaP(a, 0x1p-1022); err != nil || low >= p {
			return
		}
		x, err := GammaPInv(a, p)
		if err != nil {
			t.Fatalf("GammaPInv(%v,%v): %v", a, p, err)
		}
		back, err := GammaP(a, x)
		if err != nil {
			t.Fatalf("GammaP(%v,%v): %v", a, x, err)
		}
		if math.Abs(back-p) > 1e-6 {
			t.Fatalf("round trip (a=%v): p=%v -> x=%v -> %v", a, p, x, back)
		}
	})
}

// FuzzNormQuantileRoundTrip checks the normal quantile inversion.
func FuzzNormQuantileRoundTrip(f *testing.F) {
	f.Add(0.5)
	f.Add(0.999)
	f.Add(1e-9)
	f.Fuzz(func(t *testing.T, p float64) {
		if math.IsNaN(p) {
			return
		}
		p = math.Mod(math.Abs(p), 1)
		if p <= 1e-300 || p >= 1-1e-12 {
			return
		}
		z, err := NormQuantile(p)
		if err != nil {
			t.Fatalf("NormQuantile(%v): %v", p, err)
		}
		back := NormCDF(z)
		tol := 1e-9 * math.Max(1, 1/math.Min(p, 1-p)*1e-3)
		if math.Abs(back-p) > tol {
			t.Fatalf("round trip: p=%v -> z=%v -> %v", p, z, back)
		}
	})
}
