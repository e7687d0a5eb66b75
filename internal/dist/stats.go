package dist

import "math"

// Welford accumulates streaming mean and variance without storing samples.
// The zero value is ready to use. It is the building block for the
// Monte-Carlo estimators in the simulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the running unbiased variance (0 if fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge combines another accumulator into w (parallel reduction).
func (w *Welford) Merge(o Welford) { w.MergeMoments(o.n, o.mean, o.m2) }

// MergeMoments combines a batch of n observations, given by its mean and
// its sum of squared deviations from that mean, into w: the batch form of
// Add, for callers that see their samples a group at a time.
func (w *Welford) MergeMoments(n int64, mean, m2 float64) {
	if n == 0 {
		return
	}
	if w.n == 0 {
		w.n, w.mean, w.m2 = n, mean, m2
		return
	}
	total := w.n + n
	d := mean - w.mean
	w.m2 += m2 + d*d*float64(w.n)*float64(n)/float64(total)
	w.mean += d * float64(n) / float64(total)
	w.n = total
}

// WilsonInterval returns the Wilson score interval for a binomial proportion
// with k successes out of n trials at confidence level implied by z (e.g.
// z=1.96 for 95%). It is the interval the simulator reports around
// estimated glitch probabilities; it behaves sensibly even when k is 0.
func WilsonInterval(k, n int64, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	den := 1 + z2/nf
	center := (p + z2/(2*nf)) / den
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / den
	lo = center - half
	hi = center + half
	// Pin to exact endpoints at degenerate counts: floating-point residue
	// must not leave a zero-hit interval excluding p = 0.
	if k == 0 || lo < 0 {
		lo = 0
	}
	if k == n || hi > 1 {
		hi = 1
	}
	return lo, hi
}
