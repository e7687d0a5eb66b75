package dist

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Empirical is the empirical distribution of a sample, used to feed measured
// fragment-size statistics into the admission model ("workload statistics
// ... are fed into the admission control", §2.3) and to compare simulated
// against analytic distributions.
type Empirical struct {
	sorted []float64
	mean   float64
	vr     float64
}

// NewEmpirical builds an empirical distribution from the given sample.
// The sample is copied; it must be non-empty and finite.
func NewEmpirical(sample []float64) (*Empirical, error) {
	if len(sample) == 0 {
		return nil, ErrParam
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	for _, x := range s {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, ErrParam
		}
	}
	sort.Float64s(s)
	e := &Empirical{sorted: s}
	e.mean = meanOf(s)
	e.vr = varOf(s, e.mean)
	return e, nil
}

func meanOf(s []float64) float64 {
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func varOf(s []float64, mean float64) float64 {
	if len(s) < 2 {
		return 0
	}
	var ss float64
	for _, x := range s {
		d := x - mean
		ss += d * d
	}
	return ss / float64(len(s)-1)
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Var returns the unbiased sample variance.
func (e *Empirical) Var() float64 { return e.vr }

// PDF is not defined for an empirical distribution; it returns 0.
func (e *Empirical) PDF(float64) float64 { return 0 }

// Quantile returns the p-quantile with linear interpolation between order
// statistics (type-7 estimator).
func (e *Empirical) Quantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	n := len(e.sorted)
	if n == 1 {
		return e.sorted[0], nil
	}
	h := p * float64(n-1)
	i := int(h)
	if i >= n-1 {
		return e.sorted[n-1], nil
	}
	frac := h - float64(i)
	return e.sorted[i]*(1-frac) + e.sorted[i+1]*frac, nil
}

// Sample draws uniformly from the stored sample (bootstrap draw).
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	return e.sorted[rng.IntN(len(e.sorted))]
}
