// Package numeric provides the one-dimensional numerical routines used by
// the analytic model: root finding, function minimization, and quadrature.
//
// The routines are deliberately simple, allocation-free, and deterministic.
// They operate on plain func(float64) float64 values and report failures as
// errors rather than panicking, so callers can fall back to coarser bounds
// when an optimization is ill-conditioned.
package numeric

import (
	"errors"
	"math"
)

// Common errors returned by the routines in this package.
var (
	// ErrNoBracket is returned when the caller-supplied interval does not
	// bracket a root (the function has the same sign at both ends).
	ErrNoBracket = errors.New("numeric: interval does not bracket a root")
	// ErrMaxIter is returned when an iteration limit is exhausted before
	// the requested tolerance is reached.
	ErrMaxIter = errors.New("numeric: maximum iterations exceeded")
	// ErrInvalidInterval is returned when an interval is empty or contains
	// non-finite endpoints.
	ErrInvalidInterval = errors.New("numeric: invalid interval")
)

const (
	defaultTol     = 1e-12
	defaultMaxIter = 200
)

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
