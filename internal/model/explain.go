package model

import (
	"fmt"

	"mzqos/internal/chernoff"
)

// AdmissionExplanation is the admission-decision trace of one NMax
// evaluation: not just the resulting limit, but *why* — the binding
// stream count k (the first k that violates the guarantee), which bound
// family rejected it (the per-round b_late of eq. 3.1.6 or the per-stream
// machinery built on b_glitch, eq. 3.3.3/3.3.5), the optimizing Chernoff
// θ of the binding solve, and the slack left between the guarantee's
// threshold and the bound actually in force at N_max. This is the tuple
// an operator needs to answer "which Chernoff term rejected the stream".
type AdmissionExplanation struct {
	// Guarantee is the evaluated target; Threshold repeats its δ/ε for
	// convenience in rendered output.
	Guarantee Guarantee `json:"guarantee"`
	Threshold float64   `json:"threshold"`
	// NMax is the admission limit the evaluation produced.
	NMax int `json:"n_max"`
	// Bound names the constraint family that binds: "b_late" for
	// per-round guarantees (eq. 3.1.7), "b_glitch" for per-stream
	// guarantees, whose p_error (eq. 3.3.6) is the binomial tail of the
	// glitch bound.
	Bound string `json:"bound"`
	// BindingK is the first stream count that violates the guarantee
	// (N_max+1, or 1 under overload); 0 when the walk hit its range cap
	// without ever violating (see Capped).
	BindingK int `json:"binding_k"`
	// Theta is the optimizing Chernoff parameter of b_late(BindingK, t) —
	// the θ that minimizes the bound at the binding count. For per-stream
	// guarantees this is the θ of the newest b_late term entering the
	// glitch prefix sum at BindingK, the term whose growth tips p_error
	// over ε. Zero when Capped.
	Theta float64 `json:"theta"`
	// ValueAtNMax is the guarantee's governing quantity (b_late or
	// p_error) evaluated at NMax; ValueAtBindingK the same at BindingK —
	// the value that crossed Threshold.
	ValueAtNMax     float64 `json:"value_at_n_max"`
	ValueAtBindingK float64 `json:"value_at_binding_k"`
	// Slack is Threshold − ValueAtNMax: the guarantee headroom the
	// admitted limit keeps. Negative never occurs (the walk would have
	// rejected); ≈0 means the limit sits right against the bound.
	Slack float64 `json:"slack"`
	// Overload marks a guarantee unattainable even for one stream
	// (NMax = 0, BindingK = 1). Capped marks a walk that exhausted its
	// range without violating, so no binding k exists.
	Overload bool `json:"overload,omitempty"`
	Capped   bool `json:"capped,omitempty"`
}

// String renders the explanation for logs and tables.
func (e AdmissionExplanation) String() string {
	switch {
	case e.Overload:
		return fmt.Sprintf("N_max=0: %s(1)=%.3g > %.3g even for one stream (theta=%.4g)",
			e.Bound, e.ValueAtBindingK, e.Threshold, e.Theta)
	case e.Capped:
		return fmt.Sprintf("N_max=%d (search cap): %s(N_max)=%.3g, slack %.3g",
			e.NMax, e.Bound, e.ValueAtNMax, e.Slack)
	default:
		return fmt.Sprintf("N_max=%d: %s(%d)=%.3g > %.3g at theta=%.4g, slack %.3g at N_max",
			e.NMax, e.Bound, e.BindingK, e.ValueAtBindingK, e.Threshold, e.Theta, e.Slack)
	}
}

// ExplainNMax evaluates the admission limit for g and returns the full
// decision trace: N_max plus the binding constraint tuple (k, bound, θ,
// slack), all filled by the one walk that finds N_max. Unlike NMaxFor, an
// unattainable guarantee is not an error here: it returns Overload=true
// with NMax 0, since "why zero" is exactly what an explanation is for.
func (m *Model) ExplainNMax(g Guarantee) (AdmissionExplanation, error) {
	r := m.chainAt(m.cfg.RoundLength)
	defer r.flush()
	exp, err := m.walk(g, func(n int) (float64, error) {
		c, err := r.at(n)
		if err != nil {
			return 0, err
		}
		if g.Rounds == 0 {
			return c.res[n].Bound, nil
		}
		return chernoff.BinomialUpperTail(g.Rounds, c.glitch(n, n), g.Glitches)
	})
	if err != nil {
		return AdmissionExplanation{}, err
	}
	exp.Bound = "b_late"
	if g.Rounds > 0 {
		exp.Bound = "b_glitch"
	}
	if exp.BindingK > 0 {
		exp.Theta = r.c.res[exp.BindingK].Theta
	}
	return exp, nil
}

// ExplainNMaxWith is ExplainNMax for an arbitrary per-n quantity q — a
// baseline tail functional, a buffered bound — held to threshold by the
// same walk. Bound and Theta are left empty: the quantity is the caller's.
func (m *Model) ExplainNMaxWith(q func(n int) (float64, error), threshold float64) (AdmissionExplanation, error) {
	return m.walk(Guarantee{Threshold: threshold}, q)
}

// walk is the one loop that answers "the largest n whose quantity is at
// most the threshold": it validates g, reads q(n) for n = 1, 2, … and stops
// at the first n whose quantity exceeds g.Threshold or is NaN, or at the
// search cap. The quantities the model walks are non-decreasing in n
// (TestBoundsNonDecreasingInN), so the n before the first violation is
// max{N : q(N) ≤ target} (eqs. 3.1.7, 3.3.6). It fills every field of the
// explanation but Bound and Theta, which depend on the quantity. Probes
// are counted locally and added to the shared counter once per walk.
func (m *Model) walk(g Guarantee, q func(n int) (float64, error)) (AdmissionExplanation, error) {
	if err := g.validate(); err != nil {
		return AdmissionExplanation{}, err
	}
	exp := AdmissionExplanation{Guarantee: g, Threshold: g.Threshold}
	var probes int64
	defer func() { tel.searchProbes.Add(probes) }()
	for n := 1; n <= m.maxSearchN; n++ {
		probes++
		v, err := q(n)
		if err != nil {
			return AdmissionExplanation{}, err
		}
		if !(v <= g.Threshold) {
			exp.BindingK, exp.ValueAtBindingK = n, v
			exp.Overload = n == 1
			break
		}
		exp.NMax, exp.ValueAtNMax = n, v
	}
	exp.Capped = exp.BindingK == 0
	exp.Slack = g.Threshold - exp.ValueAtNMax
	tel.admissionDecisions.Inc()
	return exp, nil
}
