package dist

import (
	"math"
	"math/rand/v2"

	"mzqos/internal/specfn"
)

// Lognormal is the lognormal distribution: log X ~ Normal(Mu, Sigma²).
// The paper notes (§3.1) that its derivation carries over to other
// heavy-tailed fragment-size laws such as Lognormal; we provide it both as
// a size model and for the ablation comparing size distributions.
type Lognormal struct {
	Mu, Sigma float64
}

// LognormalFromMeanVar returns the Lognormal whose first two moments match
// the given mean and variance.
func LognormalFromMeanVar(mean, variance float64) (Lognormal, error) {
	s2 := math.Log(1 + variance/(mean*mean))
	l := Lognormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}
	if !positive(mean, variance, l.Sigma) { // a finite Sigma makes Mu finite
		return Lognormal{}, ErrParam
	}
	return l, nil
}

// Mean returns exp(Mu + Sigma²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Var returns (e^{Sigma²} - 1)·e^{2Mu + Sigma²}.
func (l Lognormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return math.Expm1(s2) * math.Exp(2*l.Mu+s2)
}

// PDF returns the density at x.
func (l Lognormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P[X <= x].
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return specfn.NormCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Quantile returns the p-quantile.
func (l Lognormal) Quantile(p float64) (float64, error) {
	z, err := specfn.NormQuantile(p)
	if err != nil {
		return 0, ErrDomain
	}
	return math.Exp(l.Mu + l.Sigma*z), nil
}

// Sample draws a variate.
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Pareto is the (type I) Pareto distribution with scale Xm > 0 and tail
// index Alpha > 0: P[X > x] = (Xm/x)^Alpha for x >= Xm.
type Pareto struct {
	Xm, Alpha float64
}

// ParetoFromMeanVar returns the Pareto whose first two moments match the
// given mean and variance. Requires alpha > 2, i.e. variance finite, which
// holds whenever variance > 0 can be matched: the implied tail index is
// alpha = 1 + sqrt(1 + mean²/variance).
func ParetoFromMeanVar(mean, variance float64) (Pareto, error) {
	alpha := 1 + math.Sqrt(1+mean*mean/variance)
	p := Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
	if !positive(mean, variance, p.Xm, p.Alpha) {
		return Pareto{}, ErrParam
	}
	return p, nil
}

// Mean returns α·Xm/(α-1) for α > 1, +Inf otherwise.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Var returns the variance for α > 2, +Inf otherwise.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

// PDF returns the density at x.
func (p Pareto) PDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return p.Alpha * math.Pow(p.Xm, p.Alpha) / math.Pow(x, p.Alpha+1)
}

// CDF returns P[X <= x].
func (p Pareto) CDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile returns the q-quantile.
func (p Pareto) Quantile(q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, ErrDomain
	}
	return p.Xm / math.Pow(1-q, 1/p.Alpha), nil
}

// Sample draws a variate by inversion.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	return p.Xm / math.Pow(1-rng.Float64(), 1/p.Alpha)
}
