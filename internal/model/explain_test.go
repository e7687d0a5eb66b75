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

// explainRow is one pinned ExplainNMax answer; the guarantee, threshold
// and bound name follow from the grid entry it stands beside.
type explainRow struct {
	nmax, bindingK     int
	atNMax, atBindingK float64
	theta, slack       float64
	overload, capped   bool
}

// TestExplainNMaxGolden pins every field of ExplainNMax, bit for bit, over
// the admission grid plus an unattainable δ (overload at one stream) and a
// δ just under 1 (binding where b_late reaches 1 and θ = 0), on both disk
// profiles. The values were taken from the probe-and-bisect search, so any
// search that answers N_max = max{N : bound(N) ≤ target} keeps them.
func TestExplainNMaxGolden(t *testing.T) {
	grid := append(admissionTestGrid(), Guarantee{Threshold: 1e-300}, Guarantee{Threshold: 0.999999})
	for _, tc := range []struct {
		name string
		geom *disk.Geometry
		rows []explainRow
	}{
		{"viking", disk.QuantumViking21(), []explainRow{
			{23, 24, 1.5629923002024724e-05, 0.00011942233792284916, 56.85467535071026, 8.437007699797528e-05, false, false},
			{25, 26, 0.0007312932650457504, 0.0036107656680471572, 45.80868814117977, 0.00026870673495424965, false, false},
			{26, 27, 0.0036107656680471572, 0.014455454681863461, 40.168092538687226, 0.0063892343319528425, false, false},
			{28, 29, 0.0471665645058274, 0.1260360546272298, 28.65020535073659, 0.002833435494172601, false, false},
			{29, 30, 0.1260360546272298, 0.27705229962037675, 22.77476637848607, 0.0739639453727702, false, false},
			{26, 27, 5.410840703378624e-07, 0.001309089530015002, 40.168092538687226, 0.0009994589159296621, false, false},
			{27, 28, 0.001309089530015002, 0.261885224992835, 34.447864457125725, 0.048690910469985, false, false},
			{27, 28, 9.420690823029757e-10, 0.00027703409554625657, 34.447864457125725, 9.99990579309177e-05, false, false},
			{28, 29, 0.00027703409554625657, 0.4076074497711031, 28.65020535073659, 0.009722965904453743, false, false},
			{29, 30, 2.555446305771508e-05, 0.5059392097285985, 22.77476637848607, 0.009974445536942286, false, false},
			{29, 30, 2.555446305771508e-05, 0.5059392097285985, 22.77476637848607, 0.09997444553694229, false, false},
			{0, 1, 0, 3.285435073745434e-63, 161.7870547279063, 1e-300, true, false},
			{33, 34, 0.9499391451236241, 1, 0, 0.050059854876375875, false, false},
		}},
		{"synthetic2000", disk.Synthetic2000(), []explainRow{
			{85, 86, 4.1564740925804485e-05, 0.00015762818417990412, 125.08013647565802, 5.843525907419552e-05, false, false},
			{87, 88, 0.0005416515524236228, 0.0016881372179358292, 107.30513848985095, 0.00045834844757637724, false, false},
			{89, 90, 0.004776644263565777, 0.012282657898058312, 89.46724743373666, 0.005223355736434223, false, false},
			{91, 92, 0.028730541380740195, 0.06119351419770687, 71.58450289218278, 0.021269458619259808, false, false},
			{93, 94, 0.11879695973019964, 0.21041250189879562, 53.67390364162672, 0.08120304026980037, false, false},
			{91, 92, 0.00029939256551451943, 0.017388555656660233, 71.58450289218278, 0.0007006074344854806, false, false},
			{92, 93, 0.017388555656660233, 0.2955210112747731, 62.63164260988868, 0.03261144434333977, false, false},
			{92, 93, 2.9874598001420535e-07, 0.0003946425035356042, 62.63164260988868, 9.97012540199858e-05, false, false},
			{93, 94, 0.0003946425035356042, 0.06308126437182535, 53.67390364162672, 0.009605357496464396, false, false},
			{95, 96, 0.0006600914961135562, 0.17483580381160463, 35.75079870022517, 0.009339908503886444, false, false},
			{95, 96, 0.0006600914961135562, 0.17483580381160463, 35.75079870022517, 0.09933990850388645, false, false},
			{0, 1, 0, 2.542507685121687e-272, 653.8899890572562, 1e-300, true, false},
			{99, 100, 0.9589793859824297, 1, 0, 0.04101961401757026, false, false},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{Disk: tc.geom, Sizes: workload.PaperSizes(), RoundLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range grid {
				got, err := m.ExplainNMax(g)
				if err != nil {
					t.Fatal(err)
				}
				r := tc.rows[i]
				want := AdmissionExplanation{
					Guarantee: g, Threshold: g.Threshold, Bound: "b_late",
					NMax: r.nmax, BindingK: r.bindingK,
					ValueAtNMax: r.atNMax, ValueAtBindingK: r.atBindingK,
					Theta: r.theta, Slack: r.slack,
					Overload: r.overload, Capped: r.capped,
				}
				if g.Rounds > 0 {
					want.Bound = "b_glitch"
				}
				if got != want {
					t.Errorf("%v:\n got %+v\nwant %+v", g, got, want)
				}
			}
		})
	}
}

// TestExplainNMaxCapped: a walk that reaches the search cap without a
// violation admits the cap and names no binding k, θ or binding value.
func TestExplainNMaxCapped(t *testing.T) {
	m := paperModel(t)
	m.maxSearchN = 20
	g := Guarantee{Threshold: 0.01}
	exp, err := m.ExplainNMax(g)
	if err != nil {
		t.Fatal(err)
	}
	at, err := m.LateBound(20)
	if err != nil {
		t.Fatal(err)
	}
	want := AdmissionExplanation{Guarantee: g, Threshold: 0.01, Bound: "b_late", NMax: 20,
		ValueAtNMax: at, Slack: 0.01 - at, Capped: true}
	if exp != want {
		t.Errorf("capped explanation:\n got %+v\nwant %+v", exp, want)
	}
	if s := exp.String(); !strings.Contains(s, "search cap") {
		t.Errorf("String() = %q", s)
	}
}
