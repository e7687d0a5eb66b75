package chernoff

import (
	"math"
	"testing"
	"testing/quick"

	"mzqos/internal/dist"
	"mzqos/internal/lst"
)

func TestBoundExponentialClosedForm(t *testing.T) {
	// For X ~ Exp(λ), the Chernoff bound is known in closed form:
	// P[X ≥ t] ≤ λt·e^{1-λt} for λt > 1 (optimal θ = λ - 1/t).
	g, _ := lst.NewGamma(1, 2)
	tt := 3.0
	res, err := Bound(g, tt)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * tt * math.Exp(1-2*tt)
	if math.Abs(res.Bound-want) > 1e-9*want {
		t.Errorf("Bound = %v, want %v", res.Bound, want)
	}
	wantTheta := 2 - 1/tt
	if math.Abs(res.Theta-wantTheta) > 1e-5 {
		t.Errorf("Theta = %v, want %v", res.Theta, wantTheta)
	}
}

func TestBoundTrivialBelowMean(t *testing.T) {
	g, _ := lst.NewGamma(4, 2) // mean 2
	res, err := Bound(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 1 || res.Theta != 0 {
		t.Errorf("below-mean bound = %+v, want trivial", res)
	}
}

func TestBoundDominatesTrueTail(t *testing.T) {
	// The Chernoff bound must upper-bound the true tail of a Gamma.
	g, _ := lst.NewGamma(4, 0.02)
	d := dist.Gamma{Shape: 4, Rate: 0.02}
	for _, tt := range []float64{250, 300, 400, 600, 1000} {
		res, err := Bound(g, tt)
		if err != nil {
			t.Fatal(err)
		}
		trueTail := 1 - d.CDF(tt)
		if res.Bound < trueTail {
			t.Errorf("t=%v: bound %v below true tail %v", tt, res.Bound, trueTail)
		}
		// And it should not be absurdly loose (within a few orders).
		if trueTail > 1e-12 && res.Bound > 1e4*trueTail {
			t.Errorf("t=%v: bound %v way above true tail %v", tt, res.Bound, trueTail)
		}
	}
}

func TestBoundBoundedVariable(t *testing.T) {
	// Uniform has an entire MGF (infinite MaxTheta); exercise the doubling
	// search for the upper limit.
	u, _ := lst.NewUniform(0, 1)
	res, err := Bound(u, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Bound > 0 && res.Bound < 1) {
		t.Errorf("Bound = %v, want in (0,1)", res.Bound)
	}
	// True tail is 0.01; Chernoff on a single uniform is loose but valid.
	if res.Bound < 0.01 {
		t.Errorf("Bound %v below true tail 0.01", res.Bound)
	}
}

func TestBoundRoundServiceExample(t *testing.T) {
	// §3.1 worked example: t=1s, SEEK=0.10932, ROT=0.00834,
	// E[Ttrans]=0.02174, Var=0.00011815, N=27 → p_late ≈ 0.0103;
	// N=26 → ≈ 0.00225. Reproduce from the raw transform algebra.
	build := func(n int) lst.Transform {
		seekT := seekTimeTotal(n)
		rot, _ := lst.NewUniform(0, 0.00834)
		gd, _ := dist.GammaFromMeanVar(0.02174, 0.00011815)
		tr, _ := lst.NewGamma(gd.Shape, gd.Rate)
		rotN, _ := lst.NewIID(rot, n)
		trN, _ := lst.NewIID(tr, n)
		return lst.NewSum(lst.PointMass{C: seekT}, rotN, trN)
	}
	r27, err := Bound(build(27), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r27.Bound-0.0103) > 0.0015 {
		t.Errorf("N=27 bound = %v, paper says ≈0.0103", r27.Bound)
	}
	r26, err := Bound(build(26), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r26.Bound-0.00225) > 0.0005 {
		t.Errorf("N=26 bound = %v, paper says ≈0.00225", r26.Bound)
	}
}

// seekTimeTotal reproduces SEEK(N) for the Table-1 seek curve: N+1
// equidistant seeks of CYL/(N+1) cylinders each (Oyang worst case).
func seekTimeTotal(n int) float64 {
	d := 6720.0 / float64(n+1)
	var per float64
	if d < 1344 {
		per = 1.867e-3 + 1.315e-4*math.Sqrt(d)
	} else {
		per = 3.8635e-3 + 2.1e-6*d
	}
	return float64(n+1) * per
}

func TestSeekExampleValue(t *testing.T) {
	// Paper: for N=27, SEEK = 0.10932 s.
	if s := seekTimeTotal(27); math.Abs(s-0.10932) > 1e-5 {
		t.Errorf("SEEK(27) = %v, want 0.10932", s)
	}
}

func TestBoundErrors(t *testing.T) {
	if _, err := Bound(nil, 1); err != ErrParam {
		t.Errorf("nil transform err = %v", err)
	}
	g, _ := lst.NewGamma(1, 1)
	if _, err := Bound(g, math.NaN()); err != ErrParam {
		t.Errorf("NaN t err = %v", err)
	}
}

func TestBinomialUpperTailPaperExample(t *testing.T) {
	// §3.3: M=1200, g=12, and b_glitch such that p_error ≈ 0.14e-3.
	// Sanity-check HR89 behaviour instead with hand-computable cases:
	// P[Bin(10, 0.1) ≥ 5] ≤ (1/5)^5·(9/5)^5 = (9/25)^5.
	b, err := BinomialUpperTail(10, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(9.0/25.0, 5)
	if math.Abs(b-want) > 1e-12 {
		t.Errorf("HR89 = %v, want %v", b, want)
	}
}

func TestBinomialUpperTailEdges(t *testing.T) {
	// Below the mean the bound is trivial.
	b, err := BinomialUpperTail(100, 0.5, 40)
	if err != nil || b != 1 {
		t.Errorf("below-mean = %v, %v", b, err)
	}
	// g = m edge: bound is p^m.
	b, err = BinomialUpperTail(4, 0.5, 4)
	if err != nil || math.Abs(b-0.0625) > 1e-12 {
		t.Errorf("g=m = %v, want 0.0625", b)
	}
	// g = 0 with p > 0: trivially 1.
	b, err = BinomialUpperTail(10, 0.3, 0)
	if err != nil || b != 1 {
		t.Errorf("g=0 = %v", b)
	}
	// p = 0.
	b, err = BinomialUpperTail(10, 0, 1)
	if err != nil || b != 0 {
		t.Errorf("p=0,g=1 = %v", b)
	}
	b, err = BinomialUpperTail(10, 0, 0)
	if err != nil || b != 1 {
		t.Errorf("p=0,g=0 = %v", b)
	}
	if _, err := BinomialUpperTail(0, 0.5, 0); err != ErrParam {
		t.Errorf("m=0 err = %v", err)
	}
	if _, err := BinomialUpperTail(10, 1.5, 2); err != ErrParam {
		t.Errorf("p>1 err = %v", err)
	}
	if _, err := BinomialUpperTail(10, 0.5, 11); err != ErrParam {
		t.Errorf("g>m err = %v", err)
	}
}

func TestBinomialExactSmall(t *testing.T) {
	// P[Bin(3, 0.5) ≥ 2] = 4/8 = 0.5
	v, err := BinomialTailExact(3, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 1e-12 {
		t.Errorf("exact = %v, want 0.5", v)
	}
	// Edge cases.
	if v, _ := BinomialTailExact(5, 0.3, 0); v != 1 {
		t.Errorf("g=0 exact = %v", v)
	}
	if v, _ := BinomialTailExact(5, 0, 2); v != 0 {
		t.Errorf("p=0 exact = %v", v)
	}
	if v, _ := BinomialTailExact(5, 1, 5); v != 1 {
		t.Errorf("p=1 exact = %v", v)
	}
}

// Property: HR89 upper-bounds the exact binomial tail.
func TestHR89DominatesExact(t *testing.T) {
	prop := func(mRaw, pRaw, gRaw int) bool {
		m := 1 + abs(mRaw)%200
		g := abs(gRaw) % (m + 1)
		p := float64(abs(pRaw)%1000) / 1000
		hb, err1 := BinomialUpperTail(m, p, g)
		ex, err2 := BinomialTailExact(m, p, g)
		if err1 != nil || err2 != nil {
			return false
		}
		return hb >= ex-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestHR89PaperScale(t *testing.T) {
	// At the paper's scale (M=1200, g=12) the bound must track the exact
	// tail within a couple of orders of magnitude.
	p := 0.002
	hb, _ := BinomialUpperTail(1200, p, 12)
	ex, _ := BinomialTailExact(1200, p, 12)
	if hb < ex {
		t.Fatalf("bound %v below exact %v", hb, ex)
	}
	if hb > 1e3*ex {
		t.Errorf("bound %v too loose vs exact %v", hb, ex)
	}
}

func TestChebyshev(t *testing.T) {
	// Cantelli: Var/(Var + d²).
	if v := Chebyshev(10, 4, 14); math.Abs(v-4.0/20.0) > 1e-12 {
		t.Errorf("Chebyshev = %v, want 0.2", v)
	}
	if Chebyshev(10, 4, 9) != 1 {
		t.Error("below mean should be 1")
	}
	if Chebyshev(10, -1, 20) != 1 {
		t.Error("negative variance should be trivial")
	}
}

func TestCLT(t *testing.T) {
	// One sd above the mean: ≈ 0.1587.
	if v := CLT(0, 1, 1); math.Abs(v-0.15865525) > 1e-6 {
		t.Errorf("CLT = %v", v)
	}
	if CLT(5, 0, 6) != 0 || CLT(5, 0, 4) != 1 {
		t.Error("degenerate CLT wrong")
	}
}

// Property: for Gamma tails above the mean, Chernoff ≤ Cantelli-Chebyshev
// is NOT always true pointwise, but both must dominate the true tail.
func TestBoundsDominateTrueTailProperty(t *testing.T) {
	d := dist.Gamma{Shape: 4, Rate: 1} // mean 4, var 4
	g, _ := lst.NewGamma(4, 1)
	prop := func(raw float64) bool {
		tt := 4 + math.Abs(math.Mod(raw, 20)) + 0.1
		trueTail := 1 - d.CDF(tt)
		res, err := Bound(g, tt)
		if err != nil {
			return false
		}
		cb := Chebyshev(4, 4, tt)
		return res.Bound >= trueTail-1e-12 && cb >= trueTail-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BoundWarm must compute the same minimization as Bound no matter how good
// or bad the hint is: a hint only changes the bracketing work, never the
// answer beyond minimizer-locating precision.
func TestBoundWarmMatchesCold(t *testing.T) {
	g, _ := lst.NewGamma(3, 2) // mean 1.5, MaxTheta = 2
	for _, tt := range []float64{2, 3, 5, 9} {
		cold, err := Bound(g, tt)
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []float64{0, 1e-9, cold.Theta / 100, cold.Theta / 2, cold.Theta,
			cold.Theta * 1.01, cold.Theta * 2, 1.999, 5, math.Inf(1)} {
			warm, err := BoundWarm(g, tt, hint)
			if err != nil {
				t.Fatalf("t=%v hint=%v: %v", tt, hint, err)
			}
			if math.Abs(warm.Bound-cold.Bound) > 1e-9*cold.Bound+1e-300 {
				t.Errorf("t=%v hint=%v: warm bound %v, cold %v", tt, hint, warm.Bound, cold.Bound)
			}
			if math.Abs(warm.Theta-cold.Theta) > 1e-5*(1+cold.Theta) {
				t.Errorf("t=%v hint=%v: warm theta %v, cold %v", tt, hint, warm.Theta, cold.Theta)
			}
		}
	}
}

// A warm start below the mean must still short-circuit to the trivial bound.
func TestBoundWarmTrivialBelowMean(t *testing.T) {
	g, _ := lst.NewGamma(4, 2) // mean 2
	res, err := BoundWarm(g, 1.5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 1 || res.Theta != 0 {
		t.Errorf("below-mean warm bound = %+v, want trivial", res)
	}
}

// Property: for random Gamma transforms, thresholds, and hints, the warm
// and cold bounds agree.
func TestBoundWarmAgreementProperty(t *testing.T) {
	prop := func(shapeRaw, rateRaw, tRaw, hintRaw float64) bool {
		shape := 0.5 + math.Abs(math.Mod(shapeRaw, 8))
		rate := 0.2 + math.Abs(math.Mod(rateRaw, 5))
		g, err := lst.NewGamma(shape, rate)
		if err != nil {
			return false
		}
		tt := g.Mean() * (1.05 + math.Abs(math.Mod(tRaw, 6)))
		hint := math.Abs(math.Mod(hintRaw, 2*rate))
		cold, err := Bound(g, tt)
		if err != nil {
			return false
		}
		warm, err := BoundWarm(g, tt, hint)
		if err != nil {
			return false
		}
		return math.Abs(warm.Bound-cold.Bound) <= 1e-8*cold.Bound+1e-300
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// exactCritical checks c against the exact tail: c is the critical count
// of Bin(n, p) at level alpha when P[X ≥ c] ≤ alpha < P[X ≥ c−1].
func exactCritical(t *testing.T, n int64, p, alpha float64, c int64) {
	t.Helper()
	tail := func(k int64) float64 {
		if k > n {
			return 0
		}
		v, err := BinomialTailExact(int(n), p, int(k))
		if err != nil {
			t.Fatalf("BinomialTailExact(%d, %v, %d): %v", n, p, k, err)
		}
		return v
	}
	if c < 1 || c > n+1 {
		t.Fatalf("n=%d p=%v alpha=%v: critical count %d outside [1, n+1]", n, p, alpha, c)
	}
	if at, below := tail(c), tail(c-1); !(at <= alpha && below > alpha) {
		t.Errorf("n=%d p=%v alpha=%v: critical count %d, but P[X ≥ %d] = %v and P[X ≥ %d] = %v",
			n, p, alpha, c, c, at, c-1, below)
	}
}

// TestBinomialCriticalMatchesExactTail holds the critical count to the
// one BinomialTailExact defines, on a grid of populations up to 60 000
// and rates from 1e-5 to 0.05 (np up to 3000) at the SLO audit's level
// 1e-3 and two others, and densely over small populations.
func TestBinomialCriticalMatchesExactTail(t *testing.T) {
	ns := []int64{1, 4, 7, 64, 256, 1000, 2048, 6592, 20000, 53248, 60000}
	// No rate equals a level: at n = 1, p = alpha is an exact tie that
	// rounding decides either way.
	ps := []float64{1e-5, 1e-4, 1.72e-4, 9.7e-4, 3.61e-3, 0.0138, 0.05}
	for _, alpha := range []float64{1e-3, 1e-6, 0.05} {
		for _, n := range ns {
			for _, p := range ps {
				exactCritical(t, n, p, alpha, BinomialCritical(n, p, alpha))
			}
		}
	}
	for n := int64(1); n <= 300; n++ {
		for _, p := range []float64{3.61e-3, 0.05, 0.3} {
			exactCritical(t, n, p, 1e-3, BinomialCritical(n, p, 1e-3))
		}
	}
}

// TestBinomialCriticalMonotoneInN: a larger population never lowers the
// critical count (the SLO audit caches it over a population range on
// that premise), and it stays above the mean np.
func TestBinomialCriticalMonotoneInN(t *testing.T) {
	for _, p := range []float64{1.72e-4, 3.61e-3, 0.05} {
		prev := BinomialCritical(0, p, 1e-3)
		for n := int64(1); n <= 8000; n++ {
			c := BinomialCritical(n, p, 1e-3)
			if c < prev {
				t.Fatalf("p=%v: critical count falls from %d to %d at n=%d", p, prev, c, n)
			}
			if float64(c) <= float64(n)*p {
				t.Fatalf("p=%v n=%d: critical count %d at or below the mean", p, n, c)
			}
			prev = c
		}
	}
}

func TestBinomialCriticalEdges(t *testing.T) {
	for _, tc := range []struct {
		n        int64
		p, alpha float64
		want     int64
	}{
		{0, 0.01, 1e-3, 1},  // an empty window: any violation rejects
		{100, 0, 1e-3, 1},   // a zero budget: likewise
		{100, 1, 1e-3, 101}, // every trial a violation: none rejects
		{100, 0.01, 1, 0},
		{100, 0.01, 0, 101},
	} {
		if got := BinomialCritical(tc.n, tc.p, tc.alpha); got != tc.want {
			t.Errorf("BinomialCritical(%d, %v, %v) = %d, want %d", tc.n, tc.p, tc.alpha, got, tc.want)
		}
	}
}

// BenchmarkBinomialCritical is one critical count for a slow glitch
// window of a steady 4-disk server: 512 rounds of ~104 fragments.
func BenchmarkBinomialCritical(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BinomialCritical(53248, 1.72e-4, 1e-3)
	}
}
