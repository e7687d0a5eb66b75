package model

import (
	"strings"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

func paperModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExplainNMaxPerRound(t *testing.T) {
	m := paperModel(t)
	g := Guarantee{Threshold: 0.01}
	exp, err := m.ExplainNMax(g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.NMaxLate(g.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if exp.NMax != n {
		t.Errorf("explained N_max %d != NMaxLate %d", exp.NMax, n)
	}
	if exp.Bound != "b_late" {
		t.Errorf("bound = %q, want b_late", exp.Bound)
	}
	if exp.BindingK != n+1 {
		t.Errorf("binding k = %d, want %d", exp.BindingK, n+1)
	}
	if exp.Overload || exp.Capped {
		t.Errorf("unexpected overload/capped flags: %+v", exp)
	}
	// The binding tuple must actually bind: value at N_max respects the
	// threshold, value at binding k violates it, and the recorded slack is
	// the headroom between them.
	if exp.ValueAtNMax > g.Threshold {
		t.Errorf("value at N_max %.3g exceeds threshold %.3g", exp.ValueAtNMax, g.Threshold)
	}
	if exp.ValueAtBindingK <= g.Threshold {
		t.Errorf("value at binding k %.3g does not exceed threshold %.3g", exp.ValueAtBindingK, g.Threshold)
	}
	if want := g.Threshold - exp.ValueAtNMax; exp.Slack != want {
		t.Errorf("slack = %.3g, want %.3g", exp.Slack, want)
	}
	if !(exp.Theta > 0) {
		t.Errorf("theta = %v, want positive solved θ", exp.Theta)
	}
	// θ must be the chain's optimizing θ at the binding count.
	c, err := m.ensureChain(exp.BindingK)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Theta != c.res[exp.BindingK].Theta {
		t.Errorf("theta %v != chain θ %v at k=%d", exp.Theta, c.res[exp.BindingK].Theta, exp.BindingK)
	}
	if s := exp.String(); !strings.Contains(s, "b_late") {
		t.Errorf("String() = %q lacks the bound name", s)
	}
}

func TestExplainNMaxPerStream(t *testing.T) {
	m := paperModel(t)
	g := Guarantee{Rounds: 1200, Glitches: 12, Threshold: 0.01}
	exp, err := m.ExplainNMax(g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.NMaxError(g.Rounds, g.Glitches, g.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if exp.NMax != n || exp.Bound != "b_glitch" || exp.BindingK != n+1 {
		t.Errorf("exp = %+v, want N_max %d, b_glitch, binding %d", exp, n, n+1)
	}
	// Governing quantity is p_error here.
	pAt, err := m.StreamErrorBound(n, g.Rounds, g.Glitches)
	if err != nil {
		t.Fatal(err)
	}
	if exp.ValueAtNMax != pAt {
		t.Errorf("value at N_max %.3g != p_error %.3g", exp.ValueAtNMax, pAt)
	}
	if exp.ValueAtBindingK <= g.Threshold {
		t.Errorf("binding value %.3g does not violate ε=%.3g", exp.ValueAtBindingK, g.Threshold)
	}
	if !(exp.Theta > 0) {
		t.Errorf("theta = %v, want positive", exp.Theta)
	}
}

func TestExplainNMaxOverload(t *testing.T) {
	m, err := New(Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 0.001, // nothing fits: even one stream violates any δ
	})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := m.ExplainNMax(Guarantee{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Overload || exp.NMax != 0 || exp.BindingK != 1 {
		t.Errorf("overload explanation = %+v", exp)
	}
	if exp.ValueAtBindingK <= 0.01 {
		t.Errorf("overloaded binding value %.3g should violate the threshold", exp.ValueAtBindingK)
	}
	if !strings.Contains(exp.String(), "even for one stream") {
		t.Errorf("String() = %q", exp.String())
	}
}
