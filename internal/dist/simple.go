package dist

import (
	"math"
	"math/rand/v2"
)

// Deterministic is the degenerate distribution concentrated at Value. It
// models the constant SEEK term of the round service time (§3.1).
type Deterministic struct {
	Value float64
}

// Mean returns the constant.
func (d Deterministic) Mean() float64 { return d.Value }

// Var returns 0.
func (d Deterministic) Var() float64 { return 0 }

// PDF returns +Inf at the atom and 0 elsewhere (the density does not
// exist).
func (d Deterministic) PDF(x float64) float64 {
	if x == d.Value {
		return math.Inf(1)
	}
	return 0
}

// Quantile returns Value for all p in (0,1).
func (d Deterministic) Quantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	return d.Value, nil
}

// Sample returns the constant.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }
