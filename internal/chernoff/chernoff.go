// Package chernoff implements the tail-bound machinery of the paper:
//
//   - the generic Chernoff bound P[X ≥ t] ≤ inf_{θ>0} e^{-θt}·M(θ)
//     (eq. 3.1.5/3.2.12), computed by convex minimization of the exponent
//     -θt + log M(θ) over the MGF's domain of convergence;
//   - the Hagerup–Rüb Chernoff bound for binomial tails (eq. 3.3.5), used
//     for the per-stream glitch count over M rounds;
//   - the exact binomial tail (for comparison);
//   - the Chebyshev bound and the CLT normal approximation, the weaker
//     alternatives used by prior work ([CL96] and [CZ94, VGG94]) that the
//     paper's related-work section contrasts against.
package chernoff

import (
	"errors"
	"math"

	"mzqos/internal/lst"
	"mzqos/internal/numeric"
	"mzqos/internal/specfn"
)

// ErrParam is returned for invalid arguments.
var ErrParam = errors.New("chernoff: invalid parameter")

// Result reports a Chernoff bound together with the optimizing θ, which is
// useful for diagnostics and warm-starting neighbouring optimizations.
type Result struct {
	// Bound is the Chernoff upper bound on P[X >= T], clamped to [0, 1].
	Bound float64
	// Theta is the minimizing exponent parameter (0 if the bound is
	// trivially 1, i.e. t <= E[X]).
	Theta float64
	// Exponent is log of the unclamped bound, -θt + log M(θ).
	Exponent float64
}

// Bound computes the sharpest Chernoff bound on P[X ≥ t] for a variable
// with transform tr: inf over θ in (0, MaxTheta) of exp(-θt + log M(θ)).
// The exponent is convex in θ, so a bracketed scalar minimization finds the
// infimum; the result is clamped to at most 1 (θ→0 always yields 1).
func Bound(tr lst.Transform, t float64) (Result, error) {
	return BoundWarm(tr, t, 0)
}

// BoundWarm is Bound with a warm start: thetaHint, when positive, should be
// the optimizing θ of a neighbouring problem (e.g. the same round transform
// at n±1 requests, or a slightly different deadline). The exponent's
// minimizer moves smoothly under such perturbations, so the search can be
// bracketed tightly around the hint instead of scanning (0, MaxTheta),
// which cuts the minimization cost several-fold on the admission hot path.
// A hint ≤ 0 (or one that fails to bracket the minimum after widening)
// falls back to the cold full-interval search, so the result is always the
// same minimization as Bound — only the bracketing work changes.
func BoundWarm(tr lst.Transform, t, thetaHint float64) (Result, error) {
	if tr == nil || math.IsNaN(t) || math.IsNaN(thetaHint) {
		return Result{}, ErrParam
	}
	// If t does not exceed the mean, the bound is trivial.
	if t <= tr.Mean() {
		return Result{Bound: 1, Theta: 0, Exponent: 0}, nil
	}
	g := func(theta float64) float64 {
		return -theta*t + lst.LogMGF(tr, theta)
	}
	hi, err := upperSearchLimit(g, tr.MaxTheta())
	if err != nil {
		return Result{}, err
	}
	lo, tol := 0.0, 1e-12
	if thetaHint > 0 && thetaHint < hi {
		if wlo, whi, ok := warmBracket(g, thetaHint, hi); ok {
			lo, hi = wlo, whi
			// Near the minimum the exponent is flat (g' = 0), so a θ error
			// of ~1e-6·θ perturbs the exponent by O(g''·θ²·1e-12) — far
			// below the bound's useful precision. The cold path keeps the
			// historical 1e-12 so uncached solves are bit-stable across
			// releases; the warm path trades that spurious precision for
			// roughly half the Brent iterations.
			tol = 1e-6 * thetaHint
		}
	}
	theta, ge, err := numeric.BrentMin(g, lo, hi, tol)
	if err != nil {
		// BrentMin reports ErrMaxIter with its best iterate; the exponent
		// value is still a valid (if slightly loose) Chernoff bound.
		if !errors.Is(err, numeric.ErrMaxIter) {
			return Result{}, err
		}
	}
	if ge > 0 {
		// Any θ gives a valid bound; exp(positive) would exceed 1, so the
		// trivial bound is tighter.
		return Result{Bound: 1, Theta: 0, Exponent: 0}, nil
	}
	return Result{Bound: math.Exp(ge), Theta: theta, Exponent: ge}, nil
}

// warmBracket widens [hint/2, 2·hint] geometrically until it brackets the
// minimum of the convex exponent g (interior point below both ends), giving
// up after a few rounds so a useless hint degrades to the cold search.
func warmBracket(g func(float64) float64, hint, capTheta float64) (lo, hi float64, ok bool) {
	lo, hi = hint/2, math.Min(2*hint, capTheta)
	glo, ghi := g(lo), g(hi)
	gm := g(hint)
	for i := 0; i < 6; i++ {
		if gm <= glo && gm <= ghi {
			return lo, hi, true
		}
		if gm > glo { // minimum lies left of lo
			hi, ghi = hint, gm
			hint, gm = lo, glo
			lo = lo / 4
			glo = g(lo)
			continue
		}
		// Minimum lies right of hi.
		lo, glo = hint, gm
		hint, gm = hi, ghi
		if hint >= capTheta*(1-1e-9) {
			return 0, 0, false
		}
		hi = math.Min(hi*4, capTheta)
		ghi = g(hi)
	}
	return 0, 0, false
}

// upperSearchLimit picks the right end of the θ search interval: just
// inside the MGF abscissa when it is finite, otherwise a point found by
// doubling until the (convex) exponent starts increasing.
func upperSearchLimit(g func(float64) float64, maxTheta float64) (float64, error) {
	if !math.IsInf(maxTheta, 1) {
		if !(maxTheta > 0) {
			return 0, ErrParam
		}
		return maxTheta * (1 - 1e-12), nil
	}
	hi := 1.0
	prev := g(hi / 2)
	for i := 0; i < 80; i++ {
		cur := g(hi)
		if cur > prev {
			return hi, nil
		}
		prev = cur
		hi *= 2
	}
	return hi, nil
}

// BinomialUpperTail returns the Hagerup–Rüb Chernoff bound on
// P[Bin(m, p) ≥ g] (eq. 3.3.5):
//
//	(mp/g)^g · ((m - mp)/(m - g))^(m-g)   for g/m > p,
//
// and 1 otherwise (the bound only applies above the mean). Computation is
// in log space; the g = m edge uses the convention 0^0 = 1, giving p^m.
func BinomialUpperTail(m int, p float64, g int) (float64, error) {
	if m <= 0 || g < 0 || g > m || math.IsNaN(p) || p < 0 || p > 1 {
		return 0, ErrParam
	}
	mf := float64(m)
	gf := float64(g)
	if p == 0 {
		if g == 0 {
			return 1, nil
		}
		return 0, nil
	}
	if gf/mf <= p {
		return 1, nil
	}
	logb := gf * math.Log(mf*p/gf)
	if g < m {
		logb += (mf - gf) * math.Log((mf-mf*p)/(mf-gf))
	}
	if logb > 0 {
		return 1, nil
	}
	return math.Exp(logb), nil
}

// BinomialTailExact returns P[Bin(m, p) ≥ g] exactly, by a numerically
// stable log-space summation. With m around 1200 this is entirely feasible;
// the paper prefers the HR89 bound only because table precomputation in
// 1997 favoured closed forms.
func BinomialTailExact(m int, p float64, g int) (float64, error) {
	if m <= 0 || g < 0 || g > m || math.IsNaN(p) || p < 0 || p > 1 {
		return 0, ErrParam
	}
	if g == 0 {
		return 1, nil
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		return 1, nil
	}
	// Sum P[X = k] for k = g..m using logs of binomial pmf.
	lp := math.Log(p)
	lq := math.Log1p(-p)
	lgm, _ := math.Lgamma(float64(m) + 1)
	maxLog := math.Inf(-1)
	logs := make([]float64, 0, m-g+1)
	for k := g; k <= m; k++ {
		lgk, _ := math.Lgamma(float64(k) + 1)
		lgmk, _ := math.Lgamma(float64(m-k) + 1)
		l := lgm - lgk - lgmk + float64(k)*lp + float64(m-k)*lq
		logs = append(logs, l)
		if l > maxLog {
			maxLog = l
		}
	}
	var sum float64
	for _, l := range logs {
		sum += math.Exp(l - maxLog)
	}
	v := math.Exp(maxLog) * sum
	if v > 1 {
		v = 1
	}
	return v, nil
}

// BinomialCritical returns the critical count of the level-alpha test of
// a Bin(n, p) count against its upper tail: the least k with
// P[Bin(n, p) ≥ k] ≤ alpha, so a count k rejects "the rate is at most p"
// exactly when k ≥ the result. It is non-decreasing in n. It walks the
// pmf up from its mode until a term falls below alpha·1e-17, then sums
// back down until the tail passes alpha, so it costs O(√(np)) terms and
// three Lgamma calls, allocates nothing and never sums a population's
// worth of terms; BinomialTailExact is its test oracle. An empty
// population or p ≤ 0 gives 1 (any count rejects), p ≥ 1 gives n+1 (none
// can), alpha ≥ 1 gives 0.
func BinomialCritical(n int64, p, alpha float64) int64 {
	switch {
	case alpha >= 1:
		return 0
	case n <= 0 || p <= 0:
		return 1
	case !(p < 1) || !(alpha > 0):
		return n + 1
	}
	nf := float64(n)
	odds := p / (1 - p)
	k := int64((nf + 1) * p) // the mode
	if k > n {
		k = n
	}
	lgn, _ := math.Lgamma(nf + 1)
	lgk, _ := math.Lgamma(float64(k) + 1)
	lgnk, _ := math.Lgamma(nf - float64(k) + 1)
	term := math.Exp(lgn - lgk - lgnk + float64(k)*math.Log(p) + (nf-float64(k))*math.Log1p(-p))
	// Up to where the rest of the tail is negligible against alpha.
	for tiny := alpha * 1e-17; k < n && term >= tiny; k++ {
		term *= float64(n-k) / float64(k+1) * odds
	}
	// Down, accumulating tail = P[X ≥ k], to the first k it exceeds alpha.
	for tail := term; ; tail += term {
		if tail > alpha {
			return k + 1
		}
		if k == 0 {
			return 0
		}
		term *= float64(k) / float64(n-k+1) / odds
		k--
	}
}

// Chebyshev returns the one-sided Chebyshev (Cantelli) bound on
// P[X ≥ t]: Var/(Var + (t-mean)²) for t > mean, 1 otherwise. This is the
// style of bound used by [CL96] ("a relatively coarse bound based on the
// Tschebyscheff inequality").
func Chebyshev(mean, variance, t float64) float64 {
	if !(variance >= 0) {
		return 1
	}
	d := t - mean
	if d <= 0 {
		return 1
	}
	return variance / (variance + d*d)
}

// CLT returns the central-limit-theorem estimate of P[X ≥ t]: the normal
// tail Q((t-mean)/sd). Unlike the Chernoff and Chebyshev results this is an
// approximation, not a bound — the paper criticizes [CZ94, VGG94] for
// relying on it at realistic N (10–50 streams per disk).
func CLT(mean, variance, t float64) float64 {
	if !(variance > 0) {
		if t > mean {
			return 0
		}
		return 1
	}
	return 1 - specfn.NormCDF((t-mean)/math.Sqrt(variance))
}
