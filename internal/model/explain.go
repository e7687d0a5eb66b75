package model

import (
	"errors"
	"fmt"
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
	// (N_max+1, or 1 under overload); 0 when the search hit its range cap
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
	// admitted limit keeps. Negative never occurs (the search would have
	// rejected); ≈0 means the limit sits right against the bound.
	Slack float64 `json:"slack"`
	// Overload marks a guarantee unattainable even for one stream
	// (NMax = 0, BindingK = 1). Capped marks a search that exhausted its
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

// governing evaluates the guarantee's governing quantity at n: b_late for
// per-round targets, p_error for per-stream targets.
func (m *Model) governing(g Guarantee, n int) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	if g.Rounds == 0 {
		return m.LateBound(n)
	}
	return m.StreamErrorBound(n, g.Rounds, g.Glitches)
}

// lateTheta returns the optimizing θ of the memoized b_late(k, t) solve.
func (m *Model) lateTheta(k int) (float64, error) {
	c, err := m.ensureChain(k)
	if err != nil {
		return 0, err
	}
	return c.res[k].Theta, nil
}

// ExplainNMax evaluates the admission limit for g and returns the full
// decision trace: N_max plus the binding constraint tuple (k, bound, θ,
// slack). The extra work over the bare search is two memoized bound reads, so
// explaining is safe on the admission path. Unlike NMaxFor, an
// unattainable guarantee is not an error here: it returns Overload=true
// with NMax 0, since "why zero" is exactly what an explanation is for.
func (m *Model) ExplainNMax(g Guarantee) (AdmissionExplanation, error) {
	if err := g.validate(); err != nil {
		return AdmissionExplanation{}, err
	}
	exp := AdmissionExplanation{Guarantee: g, Threshold: g.Threshold, Bound: "b_late"}
	if g.Rounds > 0 {
		exp.Bound = "b_glitch"
	}
	n, err := m.nMaxCompute(g)
	switch {
	case errors.Is(err, ErrOverload):
		exp.Overload = true
		exp.BindingK = 1
	case err != nil:
		return AdmissionExplanation{}, err
	case n >= m.maxSearchN():
		exp.NMax = n
		exp.Capped = true
	default:
		exp.NMax = n
		exp.BindingK = n + 1
	}
	if exp.ValueAtNMax, err = m.governing(g, exp.NMax); err != nil {
		return AdmissionExplanation{}, err
	}
	exp.Slack = g.Threshold - exp.ValueAtNMax
	if exp.BindingK > 0 {
		if exp.ValueAtBindingK, err = m.governing(g, exp.BindingK); err != nil {
			return AdmissionExplanation{}, err
		}
		if exp.Theta, err = m.lateTheta(exp.BindingK); err != nil {
			return AdmissionExplanation{}, err
		}
	}
	tel.admissionDecisions.Inc()
	return exp, nil
}

// nMaxCompute is the raw limit search shared by NMaxFor and ExplainNMax.
func (m *Model) nMaxCompute(g Guarantee) (int, error) {
	if g.Rounds == 0 {
		return m.NMaxLate(g.Threshold)
	}
	return m.NMaxError(g.Rounds, g.Glitches, g.Threshold)
}
