// Package specfn implements the special functions needed by the stochastic
// service model: the regularized incomplete gamma function and its inverse
// (for Gamma-distribution CDFs and quantiles, e.g. the 99-percentile
// fragment sizes in the deterministic worst-case baseline of eq. 4.1), and
// the standard normal CDF and quantile (for the CLT-based admission
// baseline of [CZ94, VGG94]).
//
// Only math from the standard library is used. Accuracy targets are ~1e-12
// relative in the central range, which is far beyond what the admission
// bounds require.
package specfn

import (
	"errors"
	"math"
)

// ErrDomain is returned for arguments outside a function's domain.
var ErrDomain = errors.New("specfn: argument out of domain")

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) for a > 0, x >= 0.
func GammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		return gammaPSeries(a, x), nil
	}
	return 1 - gammaQContinued(a, x), nil
}

// gammaPSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinued evaluates Q(a,x) by Lentz's continued fraction, accurate
// for x >= a+1.
func gammaQContinued(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// GammaPInv returns x such that P(a, x) = p, for a > 0 and p in [0, 1).
// It seeds with the Wilson–Hilferty approximation and polishes with
// Halley-accelerated Newton iterations on P.
func GammaPInv(a, p float64) (float64, error) {
	if a <= 0 || p < 0 || p >= 1 || math.IsNaN(a) || math.IsNaN(p) {
		return 0, ErrDomain
	}
	if p == 0 {
		return 0, nil
	}
	lg, _ := math.Lgamma(a)

	// Initial guess (Numerical Recipes §6.2.1).
	var x float64
	if a > 1 {
		z, err := NormQuantile(p)
		if err != nil {
			return 0, err
		}
		t := 1 - 1/(9*a) + z/(3*math.Sqrt(a))
		x = a * t * t * t
		if x <= 0 {
			x = 1e-3 * a
		}
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}

	for i := 0; i < 60; i++ {
		if x <= 0 {
			x = 1e-300
		}
		pv, err := GammaP(a, x)
		if err != nil {
			return 0, err
		}
		f := pv - p
		// dP/dx = x^(a-1) e^{-x} / Γ(a)
		dp := math.Exp((a-1)*math.Log(x) - x - lg)
		if dp == 0 {
			break
		}
		u := f / dp
		// Halley correction using d²P/dx² = dp * ((a-1)/x - 1).
		x2 := x - u/(1-math.Min(1, math.Max(-1, u*((a-1)/x-1)/2)))
		if x2 <= 0 {
			x2 = x / 2
		}
		if math.Abs(x2-x) < 1e-14*math.Max(x, 1e-300) {
			x = x2
			break
		}
		x = x2
	}
	return x, nil
}

// NormCDF returns the standard normal cumulative distribution function Φ(z).
func NormCDF(z float64) float64 {
	return math.Erfc(-z/math.Sqrt2) / 2
}

// NormQuantile returns Φ⁻¹(p) for p in (0, 1), using the Acklam rational
// approximation refined by one Halley step on Φ (absolute error well below
// 1e-12 across the domain).
func NormQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	// Acklam's coefficients.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x, nil
}
