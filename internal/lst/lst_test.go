package lst

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointMass(t *testing.T) {
	p := PointMass{C: 0.10932}
	if p.LogAt(0) != 0 {
		t.Errorf("LogAt(0) = %v, want 0", p.LogAt(0))
	}
	if !almost(p.LogAt(2), -2*0.10932, 1e-15) {
		t.Errorf("LogAt(2) = %v", p.LogAt(2))
	}
	if p.Mean() != 0.10932 || p.Var() != 0 {
		t.Error("moments wrong")
	}
	if !math.IsInf(p.MaxTheta(), 1) {
		t.Error("MaxTheta should be +Inf")
	}
}

func TestUniformTransform(t *testing.T) {
	u, err := NewUniform(0, 0.00834)
	if err != nil {
		t.Fatal(err)
	}
	// Direct formula at a few s values: (1-e^{-s·ROT})/(s·ROT).
	for _, s := range []float64{-100, -1, 0.5, 10, 500} {
		want := math.Log((1 - math.Exp(-s*0.00834)) / (s * 0.00834))
		if !almost(u.LogAt(s), want, 1e-10) {
			t.Errorf("LogAt(%v) = %v, want %v", s, u.LogAt(s), want)
		}
	}
	if !almost(u.LogAt(0), 0, 1e-12) {
		t.Errorf("LogAt(0) = %v, want 0", u.LogAt(0))
	}
	if _, err := NewUniform(2, 1); err != ErrParam {
		t.Errorf("invalid interval err = %v", err)
	}
	if _, err := NewUniform(-1, 1); err != ErrParam {
		t.Errorf("negative support err = %v (LST requires X >= 0)", err)
	}
}

func TestGammaTransform(t *testing.T) {
	g, err := NewGamma(4, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// (α/(α+s))^β
	for _, s := range []float64{-0.01, 0, 0.05, 1} {
		want := 4 * math.Log(0.02/(0.02+s))
		if !almost(g.LogAt(s), want, 1e-12) {
			t.Errorf("LogAt(%v) = %v, want %v", s, g.LogAt(s), want)
		}
	}
	if !math.IsInf(g.LogAt(-0.02), 1) || !math.IsInf(g.LogAt(-1), 1) {
		t.Error("divergence beyond -α not reported")
	}
	if g.MaxTheta() != 0.02 {
		t.Errorf("MaxTheta = %v", g.MaxTheta())
	}
}

func TestSumComposition(t *testing.T) {
	seek := PointMass{C: 0.1}
	rot, _ := NewUniform(0, 0.00834)
	tr, _ := NewGamma(4, 100)
	n := 27
	rotN, _ := NewIID(rot, n)
	trN, _ := NewIID(tr, n)
	total := NewSum(seek, rotN, trN)

	wantMean := 0.1 + 27*0.00417 + 27*0.04
	if !almost(total.Mean(), wantMean, 1e-12) {
		t.Errorf("Mean = %v, want %v", total.Mean(), wantMean)
	}
	wantVar := 27*(0.00834*0.00834/12) + 27*(4.0/10000)
	if !almost(total.Var(), wantVar, 1e-12) {
		t.Errorf("Var = %v, want %v", total.Var(), wantVar)
	}
	// LogAt adds: check against manual sum at s=3.
	s := 3.0
	want := seek.LogAt(s) + 27*rot.LogAt(s) + 27*tr.LogAt(s)
	if !almost(total.LogAt(s), want, 1e-10) {
		t.Errorf("LogAt(%v) = %v, want %v", s, total.LogAt(s), want)
	}
	if total.MaxTheta() != 100 {
		t.Errorf("MaxTheta = %v, want 100 (gamma rate)", total.MaxTheta())
	}
}

func TestIIDZero(t *testing.T) {
	g, _ := NewGamma(2, 1)
	z, err := NewIID(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if z.LogAt(5) != 0 || z.Mean() != 0 || z.Var() != 0 {
		t.Error("zero-fold sum should be the constant 0")
	}
	if !math.IsInf(z.MaxTheta(), 1) {
		t.Error("MaxTheta of empty sum should be +Inf")
	}
	if _, err := NewIID(g, -1); err != ErrParam {
		t.Errorf("negative N err = %v", err)
	}
	if _, err := NewIID(nil, 2); err != ErrParam {
		t.Errorf("nil transform err = %v", err)
	}
}

func TestMixture(t *testing.T) {
	// Mixture of two point masses at 1 and 3 with weights 1/4, 3/4.
	m, err := NewMixture([]float64{1, 3}, []Transform{PointMass{C: 1}, PointMass{C: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Mean(), 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", m.Mean())
	}
	// Var = E[X²]-E[X]² = (0.25·1+0.75·9) - 6.25 = 0.75
	if !almost(m.Var(), 0.75, 1e-12) {
		t.Errorf("Var = %v, want 0.75", m.Var())
	}
	s := 0.7
	want := math.Log(0.25*math.Exp(-s) + 0.75*math.Exp(-3*s))
	if !almost(m.LogAt(s), want, 1e-12) {
		t.Errorf("LogAt = %v, want %v", m.LogAt(s), want)
	}
	if _, err := NewMixture([]float64{1}, []Transform{PointMass{}, PointMass{}}); err != ErrParam {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := NewMixture([]float64{0, 0}, []Transform{PointMass{}, PointMass{}}); err != ErrParam {
		t.Errorf("zero-weight err = %v", err)
	}
	if _, err := NewMixture([]float64{-1, 2}, []Transform{PointMass{}, PointMass{}}); err != ErrParam {
		t.Errorf("negative weight err = %v", err)
	}
}

func TestMixtureMaxTheta(t *testing.T) {
	g1, _ := NewGamma(2, 5)
	g2, _ := NewGamma(2, 9)
	m, _ := NewMixture([]float64{0.5, 0.5}, []Transform{g1, g2})
	if m.MaxTheta() != 5 {
		t.Errorf("MaxTheta = %v, want 5", m.MaxTheta())
	}
	// Zero-weight components do not constrain the abscissa.
	m2, _ := NewMixture([]float64{0, 1}, []Transform{g1, g2})
	if m2.MaxTheta() != 9 {
		t.Errorf("MaxTheta = %v, want 9", m2.MaxTheta())
	}
}

// Property: every transform satisfies T*(0)=1 (log 0), is decreasing on
// s >= 0, and bounded by 1 there.
func TestTransformAxioms(t *testing.T) {
	g, _ := NewGamma(4, 0.02)
	u, _ := NewUniform(0, 0.00834)
	iid, _ := NewIID(g, 5)
	mix, _ := NewMixture([]float64{0.3, 0.7}, []Transform{g, u})
	transforms := []Transform{PointMass{C: 2}, u, g, iid, NewSum(PointMass{C: 1}, g), mix}
	prop := func(raw1, raw2 float64) bool {
		s1 := math.Abs(math.Mod(raw1, 50))
		s2 := math.Abs(math.Mod(raw2, 50))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		for _, tr := range transforms {
			if math.Abs(tr.LogAt(0)) > 1e-9 {
				return false
			}
			l1, l2 := tr.LogAt(s1), tr.LogAt(s2)
			if l1 > 1e-9 || l2 > l1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogMGFHelper(t *testing.T) {
	g, _ := NewGamma(4, 2)
	if !almost(LogMGF(g, 1), g.LogAt(-1), 1e-15) {
		t.Error("LogMGF should be LogAt(-θ)")
	}
}
