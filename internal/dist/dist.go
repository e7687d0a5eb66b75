// Package dist provides the probability distributions used throughout the
// stochastic service model: fragment-size laws (Gamma, and the Lognormal
// and Pareto alternatives the paper mentions) and supporting distributions
// for baselines and simulation (Deterministic, Empirical). The rotational
// latency, Uniform(0, ROT), is only ever needed as a transform
// (lst.NewUniform) or a draw.
//
// All distributions implement the Distribution interface with analytic
// moments, a PDF, quantiles, and sampling on a caller-supplied
// math/rand/v2 source so simulations are reproducible and parallelizable.
package dist

import (
	"errors"
	"math/rand/v2"
)

// ErrDomain is returned for arguments outside a distribution's domain
// (e.g. Quantile probabilities outside (0,1)).
var ErrDomain = errors.New("dist: argument out of domain")

// ErrParam is returned by constructors for invalid parameters.
var ErrParam = errors.New("dist: invalid parameter")

// Distribution is a one-dimensional probability distribution with analytic
// moments. Implementations in this package are immutable value types safe
// for concurrent use.
type Distribution interface {
	// Mean returns E[X].
	Mean() float64
	// Var returns Var[X].
	Var() float64
	// PDF returns the probability density at x (0 outside the support).
	PDF(x float64) float64
	// Quantile returns the p-quantile for p in (0,1).
	Quantile(p float64) (float64, error)
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
}

// NewRand returns a reproducible random source seeded from two words.
func NewRand(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}
