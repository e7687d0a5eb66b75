// Package numeric provides the one-dimensional numerical routines used by
// the analytic model: function minimization and quadrature. The model only
// ever minimizes (the Chernoff exponent, eq. 3.1.6) and integrates (the
// transfer-time moments, eq. 3.2.7); it never solves for a root.
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
	// ErrMaxIter is returned when an iteration limit is exhausted before
	// the requested tolerance is reached.
	ErrMaxIter = errors.New("numeric: maximum iterations exceeded")
	// ErrInvalidInterval is returned when an interval is empty or contains
	// non-finite endpoints.
	ErrInvalidInterval = errors.New("numeric: invalid interval")
)

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
