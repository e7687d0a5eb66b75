package model

import (
	"fmt"
	"math"

	"mzqos/internal/chernoff"
	"mzqos/internal/lst"
)

// grow extends c in place through index n: the one place a Chernoff solve
// is warm-started. Each new index k is solved at c's deadline from res[k−1]'s
// θ (cold at k = 1, and after a bound of 1, whose θ is 0), so a chain's
// entries are a pure function of the model and its deadline, whichever
// caller grew it. It appends past c's length, which no holder of an earlier
// snapshot of c indexes, so growing by one is one solve and no copy.
func (m *Model) grow(c *lateChain, n int) error {
	for k := len(c.res); k <= n; k++ {
		tr, err := m.RoundTransform(k)
		if err != nil {
			return err
		}
		hint := c.res[k-1].Theta
		if hint > 0 {
			tel.warmSolves.Inc()
		} else {
			tel.coldSolves.Inc()
		}
		r, err := chernoff.BoundWarm(tr, c.deadline, hint)
		if err != nil {
			return err
		}
		c.res = append(c.res, r)
		c.prefix = append(c.prefix, c.prefix[k-1]+r.Bound)
	}
	return nil
}

// ensureChain returns a snapshot of the model's chain at the round length
// covering indices 1..n, growing and republishing it first if needed.
// Growth is serialized by m.mu and works on a copy of the published
// header, so a failed solve publishes nothing.
func (m *Model) ensureChain(n int) (*lateChain, error) {
	c := m.chain.Load()
	if len(c.res) > n {
		tel.chainHits.Inc()
		return c, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c = m.chain.Load()
	if len(c.res) > n {
		tel.chainHits.Inc()
		return c, nil
	}
	tel.chainExtensions.Inc()
	next := *c
	if err := m.grow(&next, n); err != nil {
		return nil, err
	}
	m.chain.Store(&next)
	return &next, nil
}

// chainReader reads the bound chain at one deadline for increasing n. At
// the round length that is the model's shared chain, read through its
// published snapshot; at any other deadline it is a chain of the reader's
// own, grown as it is read and dropped with the reader, since no caller
// asks one such deadline often enough to pay for keeping it. Reads that
// the shared snapshot answers are counted locally and added to the shared
// counter by flush, so concurrent walks do not contend on it. A reader
// belongs to one goroutine.
type chainReader struct {
	m    *Model
	c    *lateChain
	own  bool
	hits int64
}

// chainAt returns a reader of the chain at deadline d.
func (m *Model) chainAt(d float64) chainReader {
	if d == m.cfg.RoundLength {
		return chainReader{m: m, c: m.chain.Load()}
	}
	return chainReader{m: m, c: newChain(d), own: true}
}

// at returns a chain covering index n.
func (r *chainReader) at(n int) (*lateChain, error) {
	switch {
	case len(r.c.res) > n:
		if !r.own {
			r.hits++
		}
	case r.own:
		if err := r.m.grow(r.c, n); err != nil {
			return nil, err
		}
	default:
		c, err := r.m.ensureChain(n)
		if err != nil {
			return nil, err
		}
		r.c = c
	}
	return r.c, nil
}

// flush adds the reader's shared-chain hits to the chain-hit counter.
func (r *chainReader) flush() {
	tel.chainHits.Add(r.hits)
	r.hits = 0
}

// glitch returns b_glitch(n) at the chain's deadline from its entries
// through k ≤ n, every later b_late taken as 1: (prefix[k] + n − k)/n
// clamped to 1 (eq. 3.3.3). At k = n that is prefix[n]/n bit for bit.
func (c *lateChain) glitch(n, k int) float64 {
	return min((c.prefix[k]+float64(n-k))/float64(n), 1)
}

// glitchReach is how far the chain at the round length must reach to
// answer b_glitch(n): n itself up to the search cap, the cap past it,
// where every b_late(k) is 1.
func (m *Model) glitchReach(n int) int { return min(n, m.maxSearchN) }

// LateBound returns b_late(n, t): the Chernoff upper bound on the
// probability that the n requests of one round are not all served within
// the round (eq. 3.1.6 / 3.2.12). Results for all k <= n are memoized in
// one pass (warm-starting each solve from its neighbour), so the first
// call costs O(n) cheap solves and subsequent calls are lock-free reads.
// Past the admission search cap a round's mean service time exceeds 4t, so
// the bound is 1 and is returned without a solve or growing the chain.
func (m *Model) LateBound(n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative stream count", ErrConfig)
	}
	if n == 0 {
		return 0, nil
	}
	if n > m.maxSearchN {
		return 1, nil
	}
	c, err := m.ensureChain(n)
	if err != nil {
		return 0, err
	}
	return c.res[n].Bound, nil
}

// LateProbInversion returns P[T_n >= t] computed by numerically inverting
// the round transform (fixed-Talbot), i.e. the model's exact tail rather
// than its Chernoff bound. Comparing the three quantities
//
//	simulated p_late  <=  inversion tail  <=  Chernoff bound
//
// decomposes the admission conservatism into its two sources: the
// worst-case SEEK constant (simulated vs inversion) and the Chernoff
// slack (inversion vs bound). Accuracy is limited by the inversion to
// roughly 1e-7 absolute; nodes <= 0 selects a default.
func (m *Model) LateProbInversion(n, nodes int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative stream count", ErrConfig)
	}
	if n == 0 {
		return 0, nil
	}
	tr, err := m.RoundTransform(n)
	if err != nil {
		return 0, err
	}
	return lst.TailFromInversion(tr, m.cfg.RoundLength, nodes), nil
}

// GlitchBound returns b_glitch(n, t), the bound on the probability that a
// particular stream suffers a glitch in one round (eq. 3.3.3):
//
//	b_glitch(n, t) = (1/n) Σ_{k=1..n} b_late(k, t)
//
// Each term uses its own SEEK(k), matching the derivation in eq. 3.3.2
// where T_k is the service time of the first k requests of the sweep. The
// sum is read from the chain's prefix sums, so after the O(n) first-touch
// cost every call is O(1) — the admission walk over n no longer pays a
// quadratic re-summation. Past the search cap every b_late(k) is 1, so
// the chain is read through the cap and the rest is counted, with no
// solve and no growth.
func (m *Model) GlitchBound(n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: stream count must be positive", ErrConfig)
	}
	k := m.glitchReach(n)
	c, err := m.ensureChain(k)
	if err != nil {
		return 0, err
	}
	return c.glitch(n, k), nil
}

// GlitchBoundsAt returns b_glitch at an arbitrary deadline d as a reader:
// asked for n, it answers (1/n) Σ_{k=1..n} P[T_k ≥ d], clamped to 1 —
// eq. 3.3.3 with d in place of t — from a chain of warm-started solves at
// d that it grows as it is asked for larger n and that goes with it. At
// d = t it reads the model's own chain, through the search cap at most,
// so it answers GlitchBound. The
// buffered-client extension reads it at (1+s)·t. A reader belongs to one
// goroutine.
func (m *Model) GlitchBoundsAt(d float64) func(n int) (float64, error) {
	r := m.chainAt(d)
	return func(n int) (float64, error) {
		if n <= 0 || !(d > 0) || math.IsInf(d, 1) {
			return 0, fmt.Errorf("%w: need n > 0 and a positive, finite deadline", ErrConfig)
		}
		defer r.flush()
		k := n
		if !r.own {
			k = m.glitchReach(n)
		}
		c, err := r.at(k)
		if err != nil {
			return 0, err
		}
		return c.glitch(n, k), nil
	}
}

// StreamErrorBound returns p_error(n, t, M, g): the Hagerup–Rüb bound on
// the probability that one stream of M rounds suffers at least g glitches
// (eq. 3.3.5). The bound is 1 whenever g/M does not exceed the glitch
// bound (the binomial Chernoff bound only applies above the mean).
func (m *Model) StreamErrorBound(n, rounds, glitches int) (float64, error) {
	if rounds <= 0 || glitches < 0 || glitches > rounds {
		return 0, fmt.Errorf("%w: need 0 <= g <= M and M > 0", ErrConfig)
	}
	pg, err := m.GlitchBound(n)
	if err != nil {
		return 0, err
	}
	return chernoff.BinomialUpperTail(rounds, pg, glitches)
}

// StreamErrorExact returns the exact binomial tail P[#glitches >= g] at
// the *bounded* per-round glitch probability b_glitch. Still an upper
// bound on the true error probability (the binomial tail is monotone in
// p), but tighter than the HR89 closed form; provided for comparison.
func (m *Model) StreamErrorExact(n, rounds, glitches int) (float64, error) {
	if rounds <= 0 || glitches < 0 || glitches > rounds {
		return 0, fmt.Errorf("%w: need 0 <= g <= M and M > 0", ErrConfig)
	}
	pg, err := m.GlitchBound(n)
	if err != nil {
		return 0, err
	}
	return chernoff.BinomialTailExact(rounds, pg, glitches)
}

// NMaxLate returns N_max^plate = max{N : b_late(N, t) <= delta}
// (eq. 3.1.7): NMaxFor of the per-round guarantee δ. It returns
// ErrOverload if even N=1 violates delta.
func (m *Model) NMaxLate(delta float64) (int, error) {
	return m.NMaxFor(Guarantee{Threshold: delta})
}

// NMaxError returns N_max^perror = max{N : p_error(N, t, M, g) <= eps}
// (eq. 3.3.6): NMaxFor of the per-stream guarantee (M, g, ε).
func (m *Model) NMaxError(rounds, glitches int, eps float64) (int, error) {
	if rounds <= 0 {
		return 0, fmt.Errorf("%w: need 0 <= g <= M and M > 0", ErrConfig)
	}
	return m.NMaxFor(Guarantee{Rounds: rounds, Glitches: glitches, Threshold: eps})
}
