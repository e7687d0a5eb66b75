package dist

import (
	"math"
	"math/rand/v2"

	"mzqos/internal/specfn"
)

// Gamma is the Gamma distribution in the paper's parameterization
// (eq. 3.1.2): density f(x) = α(αx)^{β-1} e^{-αx} / Γ(β), i.e. rate α and
// shape β, with mean β/α and variance β/α².
type Gamma struct {
	Shape float64 // β > 0
	Rate  float64 // α > 0
}

// GammaFromMeanVar returns the Gamma distribution whose first two moments
// match the given mean and variance. This is the paper's moment-matching
// step: α = E/Var, β = E²/Var (below eq. 3.1.2 and in §3.2).
func GammaFromMeanVar(mean, variance float64) (Gamma, error) {
	g := Gamma{Shape: mean * mean / variance, Rate: mean / variance}
	if !positive(mean, variance, g.Shape, g.Rate) {
		return Gamma{}, ErrParam
	}
	return g, nil
}

// positive reports whether every x is a finite number above 0: what a
// moment-matched law needs of its moments and of the parameters they give.
func positive(xs ...float64) bool {
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return false
		}
	}
	return true
}

// Mean returns β/α.
func (g Gamma) Mean() float64 { return g.Shape / g.Rate }

// Var returns β/α².
func (g Gamma) Var() float64 { return g.Shape / (g.Rate * g.Rate) }

// PDF returns the density at x.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case g.Shape < 1:
			return math.Inf(1)
		case g.Shape == 1:
			return g.Rate
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(g.Shape)
	return math.Exp(g.Shape*math.Log(g.Rate) + (g.Shape-1)*math.Log(x) - g.Rate*x - lg)
}

// CDF returns P(β, αx).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	p, err := specfn.GammaP(g.Shape, g.Rate*x)
	if err != nil {
		return math.NaN()
	}
	return p
}

// Quantile returns the p-quantile.
func (g Gamma) Quantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	x, err := specfn.GammaPInv(g.Shape, p)
	if err != nil {
		return 0, err
	}
	return x / g.Rate, nil
}

// Sample draws a Gamma variate with the Marsaglia–Tsang method (with the
// shape<1 boost), which is exact and fast for all shapes.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	shape := g.Shape
	boost := 1.0
	if shape < 1 {
		// X_k = X_{k+1} * U^{1/k}
		boost = math.Pow(rng.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v / g.Rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v / g.Rate
		}
	}
}
