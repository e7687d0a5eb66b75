package model

import (
	"fmt"

	"mzqos/internal/chernoff"
	"mzqos/internal/lst"
)

// ensureChain returns a chain snapshot covering indices 1..n, extending the
// published chain first if needed. Extension is serialized by m.mu; each
// new index is solved warm-started from its predecessor's θ, so chain
// values are a pure function of the model (independent of which caller or
// interleaving triggered the extension). The new snapshot appends to the
// published one's backing arrays: every write lands past the published
// length, which no holder of an older snapshot indexes, so extending by one
// is one solve and no copy.
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
	res, prefix := c.res, c.prefix
	for k := len(res); k <= n; k++ {
		tr, err := m.RoundTransform(k)
		if err != nil {
			return nil, err
		}
		if res[k-1].Theta > 0 {
			tel.warmSolves.Inc()
		} else {
			tel.coldSolves.Inc()
		}
		r, err := chernoff.BoundWarm(tr, m.cfg.RoundLength, res[k-1].Theta)
		if err != nil {
			return nil, err
		}
		res = append(res, r)
		prefix = append(prefix, prefix[k-1]+r.Bound)
	}
	next := &lateChain{res: res, prefix: prefix}
	m.chain.Store(next)
	return next, nil
}

// glitch returns b_glitch(n, t) = prefix[n]/n, clamped to 1 (eq. 3.3.3).
func (c *lateChain) glitch(n int) float64 {
	return min(c.prefix[n]/float64(n), 1)
}

// LateBound returns b_late(n, t): the Chernoff upper bound on the
// probability that the n requests of one round are not all served within
// the round (eq. 3.1.6 / 3.2.12). Results for all k <= n are memoized in
// one pass (warm-starting each solve from its neighbour), so the first
// call costs O(n) cheap solves and subsequent calls are lock-free reads;
// n beyond the admission search cap is answered by a one-off cold solve
// instead of growing the memo chain.
func (m *Model) LateBound(n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative stream count", ErrConfig)
	}
	if n == 0 {
		return 0, nil
	}
	if c := m.chain.Load(); len(c.res) > n {
		tel.chainHits.Inc()
		return c.res[n].Bound, nil
	}
	if n > m.maxSearchN {
		res, err := m.lateResultAt(n, m.cfg.RoundLength, 0)
		if err != nil {
			return 0, err
		}
		return res.Bound, nil
	}
	c, err := m.ensureChain(n)
	if err != nil {
		return 0, err
	}
	return c.res[n].Bound, nil
}

// lateResultAt computes the Chernoff result for P[T_n >= deadline],
// optionally warm-started from thetaHint (pass 0 for a cold solve). Not
// memoized; sequential scans thread the returned Theta into the next call.
func (m *Model) lateResultAt(n int, deadline, thetaHint float64) (chernoff.Result, error) {
	tr, err := m.RoundTransform(n)
	if err != nil {
		return chernoff.Result{}, err
	}
	if thetaHint > 0 {
		tel.warmSolves.Inc()
	} else {
		tel.coldSolves.Inc()
	}
	return chernoff.BoundWarm(tr, deadline, thetaHint)
}

// LateBoundAt returns the Chernoff bound on P[T_n >= deadline] for an
// arbitrary deadline (not cached). The buffered-client extension uses it
// with deadlines beyond the round length: a client holding `s` rounds of
// smoothing slack only sees a glitch when the sweep overruns by more than
// s·t.
func (m *Model) LateBoundAt(n int, deadline float64) (float64, error) {
	if n < 0 || !(deadline > 0) {
		return 0, fmt.Errorf("%w: need n >= 0 and positive deadline", ErrConfig)
	}
	if n == 0 {
		return 0, nil
	}
	res, err := m.lateResultAt(n, deadline, 0)
	if err != nil {
		return 0, err
	}
	return res.Bound, nil
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
// quadratic re-summation.
func (m *Model) GlitchBound(n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: stream count must be positive", ErrConfig)
	}
	c, err := m.ensureChain(n)
	if err != nil {
		return 0, err
	}
	return c.glitch(n), nil
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
