package model

import (
	"errors"
	"math"
	"testing"

	"mzqos/internal/chernoff"
	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

// singleZoneViking returns the conventional-disk geometry of the §3.1
// worked example: Viking cylinders/rotation/seek with one uniform zone.
func singleZoneViking(t testing.TB) *disk.Geometry {
	t.Helper()
	v := disk.QuantumViking21()
	g, err := disk.SingleZone("viking-single", v.Cylinders(), v.RotationTime, v.MeanTrackCapacity(), v.Seek)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// paperSingleZoneModel is the §3.1 worked example: transfer moments given
// directly (E=0.02174 s, Var=0.00011815 s²), round length 1 s.
func paperSingleZoneModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(Config{
		Disk:         singleZoneViking(t),
		RoundLength:  1,
		TransferMean: 0.02174,
		TransferVar:  0.00011815,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// paperMultiZoneModel is the §3.2/§4 configuration: Table-1 disk and
// Gamma(200 KB, 100 KB) fragment sizes, round length 1 s.
func paperMultiZoneModel(t testing.TB) *Model {
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

func TestE1SingleZoneWorkedExample(t *testing.T) {
	m := paperSingleZoneModel(t)
	// Paper §3.1: N=27 → p_late ≈ 0.0103; N=26 → ≈ 0.00225.
	b27, err := m.LateBound(27)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b27-0.0103) > 0.0015 {
		t.Errorf("b_late(27) = %v, paper ≈ 0.0103", b27)
	}
	b26, err := m.LateBound(26)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b26-0.00225) > 0.0006 {
		t.Errorf("b_late(26) = %v, paper ≈ 0.00225", b26)
	}
	// N_max for δ = 1% is 26.
	nmax, err := m.NMaxLate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if nmax != 26 {
		t.Errorf("NMaxLate(0.01) = %d, paper says 26", nmax)
	}
}

func TestE2MultiZoneWorkedExample(t *testing.T) {
	m := paperMultiZoneModel(t)
	// Paper §3.2: N=26 → 0.00324; N=27 → 0.0133; N_max(1%) = 26.
	b26, err := m.LateBound(26)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b26-0.00324) > 0.0012 {
		t.Errorf("b_late(26) = %v, paper ≈ 0.00324", b26)
	}
	b27, err := m.LateBound(27)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b27-0.0133) > 0.004 {
		t.Errorf("b_late(27) = %v, paper ≈ 0.0133", b27)
	}
	nmax, err := m.NMaxLate(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if nmax != 26 {
		t.Errorf("NMaxLate(0.01) = %d, paper says 26", nmax)
	}
}

func TestE3GlitchWorkedExample(t *testing.T) {
	m := paperMultiZoneModel(t)
	// Paper §3.3: N=28, M=1200, g=12 → p_error ≤ 0.14·10⁻³.
	p, err := m.StreamErrorBound(28, 1200, 12)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.14e-3/5 || p > 0.14e-3*5 {
		t.Errorf("p_error(28,1,1200,12) = %v, paper ≈ 1.4e-4", p)
	}
}

func TestTable2AnalyticColumn(t *testing.T) {
	m := paperMultiZoneModel(t)
	// Table 2 analytic: N=28 → 0.00014, N=29 → 0.318, N=30..32 → 1.
	cases := []struct {
		n       int
		lo, hi  float64
		wantOne bool
	}{
		{28, 2e-5, 8e-4, false},
		{29, 0.08, 0.7, false},
		{30, 0, 0, true},
		{31, 0, 0, true},
		{32, 0, 0, true},
	}
	for _, c := range cases {
		p, err := m.StreamErrorBound(c.n, 1200, 12)
		if err != nil {
			t.Fatal(err)
		}
		if c.wantOne {
			if p < 0.999 {
				t.Errorf("p_error(N=%d) = %v, paper says 1", c.n, p)
			}
		} else if p < c.lo || p > c.hi {
			t.Errorf("p_error(N=%d) = %v, want in [%v,%v]", c.n, p, c.lo, c.hi)
		}
	}
	// N_max^perror for ε = 1% is 28.
	nmax, err := m.NMaxError(1200, 12, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if nmax != 28 {
		t.Errorf("NMaxError = %d, paper says 28", nmax)
	}
}

func TestE4WorstCase(t *testing.T) {
	m := paperMultiZoneModel(t)
	// eq. 4.1: pessimistic (99-pct size, innermost rate) → N = 10.
	n, err := m.WorstCaseNMax(WorstCaseSpec{SizeQuantile: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("worst-case N = %d, paper says 10", n)
	}
	// Optimistic variant (95-pct size, mean rate) → N = 14.
	n, err = m.WorstCaseNMax(WorstCaseSpec{SizeQuantile: 0.95, UseMeanRate: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 {
		t.Errorf("optimistic worst-case N = %d, paper says 14", n)
	}
}

func TestWorstCaseErrors(t *testing.T) {
	m := paperSingleZoneModel(t) // built without a size model
	if _, err := m.WorstCaseNMax(WorstCaseSpec{SizeQuantile: 0.99}); err != ErrNoSizeModel {
		t.Errorf("err = %v, want ErrNoSizeModel", err)
	}
	mm := paperMultiZoneModel(t)
	if _, err := mm.WorstCaseNMax(WorstCaseSpec{SizeQuantile: 0}); err == nil {
		t.Error("quantile 0 should error")
	}
}

func TestTransferMomentsMultiZone(t *testing.T) {
	m := paperMultiZoneModel(t)
	mean, variance := m.TransferMoments()
	// E[T] = E[S]·E[1/R]: 204800 bytes at the Viking's harmonic-mean rate.
	// E[1/R] = Z·ROT/ΣC_i for equal-track zones.
	g := disk.QuantumViking21()
	var sumC float64
	for _, z := range g.Zones {
		sumC += z.TrackCapacity
	}
	wantMean := 200000 * 15 * 0.00834 / sumC
	if math.Abs(mean-wantMean) > 1e-12 {
		t.Errorf("transfer mean = %v, want %v", mean, wantMean)
	}
	if !(variance > 0) {
		t.Errorf("variance = %v", variance)
	}
	// The multi-zone transfer time should be in the ballpark of the
	// paper's single-zone example (≈ 22 ms).
	if mean < 0.018 || mean > 0.026 {
		t.Errorf("transfer mean = %v s, expected ≈ 0.022", mean)
	}
}

func TestMomentPipelineVsQuadrature(t *testing.T) {
	m := paperMultiZoneModel(t)
	mean, variance := m.TransferMoments()
	qm, qv, err := m.ExactTransferMomentsQuad()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qm-mean) > 1e-6*mean {
		t.Errorf("quadrature mean %v vs closed form %v", qm, mean)
	}
	if math.Abs(qv-variance) > 1e-4*variance {
		t.Errorf("quadrature var %v vs closed form %v", qv, variance)
	}
}

func TestApproximationErrorWithinPaperClaim(t *testing.T) {
	m := paperMultiZoneModel(t)
	// Paper §3.2: the Gamma approximation's relative error is < 2% in the
	// relevant 5–100 ms range. At the distribution-function level the
	// claim holds with margin; the pointwise density error stays within a
	// few percent over the central probability mass (see ApproxErrorReport
	// doc for the full reproduction note).
	rep, err := m.ApproximationError(0.005, 0.100, 96)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxCDF > 0.02 {
		t.Errorf("max CDF error = %v, want < 0.02", rep.MaxCDF)
	}
	// Measured density-error profile on this configuration: ≈2% through
	// the bulk (8–50 ms), rising to ≈12% at the 5 ms edge of the range.
	if rep.MaxRel > 0.15 {
		t.Errorf("max central-mass density error = %v, want < 0.15", rep.MaxRel)
	}
	if rep.Points == 0 {
		t.Error("no grid points evaluated")
	}
	if rep.MeanRel > rep.MaxRel {
		t.Errorf("mean %v above max %v", rep.MeanRel, rep.MaxRel)
	}
}

func TestContinuousRateModeClose(t *testing.T) {
	md, _ := New(Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 1})
	mc, err := New(Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 1, RateMode: RateContinuous})
	if err != nil {
		t.Fatal(err)
	}
	dm, dv := md.TransferMoments()
	cm, cv := mc.TransferMoments()
	if math.Abs(dm-cm) > 0.01*dm {
		t.Errorf("means differ: discrete %v vs continuous %v", dm, cm)
	}
	if math.Abs(dv-cv) > 0.05*dv {
		t.Errorf("variances differ: discrete %v vs continuous %v", dv, cv)
	}
	b26d, _ := md.LateBound(26)
	b26c, _ := mc.LateBound(26)
	if math.Abs(b26d-b26c) > 0.5*b26d {
		t.Errorf("bounds differ: %v vs %v", b26d, b26c)
	}
}

func TestLateBoundMonotoneInN(t *testing.T) {
	m := paperMultiZoneModel(t)
	prev := 0.0
	for n := 1; n <= 40; n++ {
		b, err := m.LateBound(n)
		if err != nil {
			t.Fatal(err)
		}
		if b < prev-1e-12 {
			t.Errorf("b_late not monotone at N=%d: %v < %v", n, b, prev)
		}
		if b < 0 || b > 1 {
			t.Errorf("b_late(%d) = %v outside [0,1]", n, b)
		}
		prev = b
	}
}

func TestGlitchBoundBelowLateBound(t *testing.T) {
	// b_glitch(N) = (1/N)Σ b_late(k) ≤ b_late(N) by monotonicity.
	m := paperMultiZoneModel(t)
	for _, n := range []int{5, 15, 26, 30} {
		bg, err := m.GlitchBound(n)
		if err != nil {
			t.Fatal(err)
		}
		bl, _ := m.LateBound(n)
		if bg > bl+1e-12 {
			t.Errorf("N=%d: b_glitch %v > b_late %v", n, bg, bl)
		}
		if bg < 0 || bg > 1 {
			t.Errorf("b_glitch(%d) = %v", n, bg)
		}
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	m := paperMultiZoneModel(t)
	if b, err := m.LateBound(0); err != nil || b != 0 {
		t.Errorf("LateBound(0) = %v, %v", b, err)
	}
	if _, err := m.LateBound(-1); err == nil {
		t.Error("negative N should error")
	}
	if _, err := m.GlitchBound(0); err == nil {
		t.Error("GlitchBound(0) should error")
	}
	if _, err := m.RoundTransform(-2); err == nil {
		t.Error("negative RoundTransform should error")
	}
	// Past the search cap b_late is the solve's 1, read without growing
	// the chain.
	n := m.maxSearchN + 1
	tr, err := m.RoundTransform(n)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := chernoff.Bound(tr, m.cfg.RoundLength)
	if err != nil {
		t.Fatal(err)
	}
	held := len(m.chain.Load().res)
	if b, err := m.LateBound(n); err != nil || b != solved.Bound || b != 1 || len(m.chain.Load().res) != held {
		t.Errorf("LateBound(%d) = %v, %v (solve %v); chain %d -> %d entries", n, b, err, solved.Bound, held, len(m.chain.Load().res))
	}
}

func TestStreamErrorValidation(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.StreamErrorBound(26, 0, 0); err == nil {
		t.Error("M=0 should error")
	}
	if _, err := m.StreamErrorBound(26, 100, 101); err == nil {
		t.Error("g>M should error")
	}
	if _, err := m.StreamErrorBound(26, 100, -1); err == nil {
		t.Error("negative g should error")
	}
}

func TestStreamErrorExactTighter(t *testing.T) {
	m := paperMultiZoneModel(t)
	hb, err := m.StreamErrorBound(28, 1200, 12)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.StreamErrorExact(28, 1200, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ex > hb+1e-15 {
		t.Errorf("exact %v above HR89 bound %v", ex, hb)
	}
}

func TestNMaxValidation(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.NMaxLate(0); err == nil {
		t.Error("delta=0 should error")
	}
	if _, err := m.NMaxLate(1); err == nil {
		t.Error("delta=1 should error")
	}
	if _, err := m.NMaxError(1200, 12, 0); err == nil {
		t.Error("eps=0 should error")
	}
}

func TestNMaxOverload(t *testing.T) {
	// A round so short nothing fits: even one stream violates any δ.
	m, err := New(Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NMaxLate(0.01); err != ErrOverload {
		t.Errorf("err = %v, want ErrOverload", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := New(Config{Disk: disk.QuantumViking21()}); err == nil {
		t.Error("missing round length should error")
	}
	if _, err := New(Config{Disk: disk.QuantumViking21(), RoundLength: 1}); err == nil {
		t.Error("missing workload should error")
	}
	// A geometry disk.New did not build has no address map, however its
	// fields are set.
	v := disk.QuantumViking21()
	for _, g := range []*disk.Geometry{{}, {Name: "literal", RotationTime: v.RotationTime, Zones: v.Zones, Seek: v.Seek}} {
		for _, cfg := range []Config{
			{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1},
			{Disk: g, RoundLength: 1, TransferMean: 0.01, TransferVar: 1e-5},
		} {
			if _, err := New(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("geometry %q: New returned %v, want ErrConfig", g.Name, err)
			}
		}
	}
}

// TestNewRejectsUnboundedSearchCap: admission reads the bound chain up to
// a cap of 4t/E[T_trans] + 64 streams, so a round length that is not
// finite, or a cap past maxStreamsPerDisk, is a configuration error — not a
// cap that overflows int and answers every search with "negative stream
// count", nor a chain solved 10⁸ deep.
func TestNewRejectsUnboundedSearchCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"infinite round", Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: math.Inf(1)}},
		{"1e300 s round", Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 1e300}},
		{"nanosecond transfers", Config{Disk: singleZoneViking(t), RoundLength: 1, TransferMean: 1e-9, TransferVar: 1e-20}},
	} {
		if _, err := New(tc.cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: New returned %v, want ErrConfig", tc.name, err)
		}
	}
}

func TestBaselineOrdering(t *testing.T) {
	m := paperMultiZoneModel(t)
	// At N below saturation, the bounds should be ordered:
	// CLT estimate < Chernoff bound < Chebyshev bound in the deep tail.
	for _, n := range []int{20, 24} {
		ch, err := m.LateBound(n)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := m.LateBoundChebyshev(n)
		if err != nil {
			t.Fatal(err)
		}
		clt, err := m.LateEstimateCLT(n)
		if err != nil {
			t.Fatal(err)
		}
		if !(ch < cb) {
			t.Errorf("N=%d: Chernoff %v not tighter than Chebyshev %v", n, ch, cb)
		}
		if !(clt < cb) {
			t.Errorf("N=%d: CLT %v above Chebyshev %v", n, clt, cb)
		}
	}
}

func TestIndependentSeekBaseline(t *testing.T) {
	m := paperMultiZoneModel(t)
	sm, sv, err := m.IndependentSeekMoments()
	if err != nil {
		t.Fatal(err)
	}
	// Mean random seek on a 6720-cylinder Viking is several milliseconds,
	// below the full stroke (~18 ms) and above the single-track time.
	if sm < 0.002 || sm > 0.018 {
		t.Errorf("independent seek mean = %v s", sm)
	}
	if !(sv > 0) {
		t.Errorf("independent seek variance = %v", sv)
	}
	// Independent seeks cost more in expectation than the SCAN bound per
	// request at realistic N: compare round means.
	im, _, err := m.IndependentSeekRoundMoments(26)
	if err != nil {
		t.Fatal(err)
	}
	scanMean, _, _ := m.RoundMoments(26)
	if !(im > scanMean) {
		t.Errorf("independent-seek mean %v not above SCAN mean %v", im, scanMean)
	}
	// The derived baselines produce probabilities in [0,1].
	for _, n := range []int{10, 26, 30} {
		if p, err := m.LateEstimateIndependentCLT(n); err != nil || p < 0 || p > 1 {
			t.Errorf("independent CLT(%d) = %v, %v", n, p, err)
		}
		if p, err := m.LateBoundIndependentChebyshev(n); err != nil || p < 0 || p > 1 {
			t.Errorf("independent Chebyshev(%d) = %v, %v", n, p, err)
		}
	}
}

func TestNMaxWithBaselines(t *testing.T) {
	m := paperMultiZoneModel(t)
	ch, err := m.ExplainNMaxWith(m.LateBound, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := m.ExplainNMaxWith(m.LateBoundChebyshev, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(cb.NMax < ch.NMax) {
		t.Errorf("Chebyshev admission %d should be more conservative than Chernoff %d", cb.NMax, ch.NMax)
	}
	if ch.NMax != 26 {
		t.Errorf("ExplainNMaxWith(Chernoff) = %d, want 26", ch.NMax)
	}
}

func TestAdmissionTable(t *testing.T) {
	m := paperMultiZoneModel(t)
	specs := []Guarantee{
		{Threshold: 0.01},
		{Threshold: 0.05},
		{Rounds: 1200, Glitches: 12, Threshold: 0.01},
	}
	tbl, err := BuildTable(m, specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.Entries()); n != 3 {
		t.Fatalf("table len = %d", n)
	}
	n, ok := tbl.Lookup(Guarantee{Threshold: 0.01})
	if !ok || n != 26 {
		t.Errorf("lookup δ=1%% → %d, %v; want 26", n, ok)
	}
	n, ok = tbl.Lookup(Guarantee{Rounds: 1200, Glitches: 12, Threshold: 0.01})
	if !ok || n != 28 {
		t.Errorf("lookup per-stream → %d, %v; want 28", n, ok)
	}
	// A looser per-round threshold admits at least as many streams.
	n5, _ := tbl.Lookup(Guarantee{Threshold: 0.05})
	if n5 < 26 {
		t.Errorf("δ=5%% admits %d < δ=1%%'s 26", n5)
	}
	if _, ok := tbl.Lookup(Guarantee{Threshold: 0.5}); ok {
		t.Error("lookup of absent guarantee should miss")
	}
	// Entries are sorted and complete.
	es := tbl.Entries()
	if len(es) != 3 || es[0].Guarantee.Rounds != 0 {
		t.Errorf("entries order: %+v", es)
	}
}

func TestBuildTableInvalidGuarantee(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := BuildTable(m, []Guarantee{{Threshold: 2}}); err == nil {
		t.Error("invalid threshold should error")
	}
	if _, err := BuildTable(m, []Guarantee{{Rounds: 10, Glitches: 11, Threshold: 0.01}}); err == nil {
		t.Error("g>M should error")
	}
}

func TestGuaranteeString(t *testing.T) {
	g := Guarantee{Threshold: 0.01}
	if g.String() == "" {
		t.Error("empty string")
	}
	g2 := Guarantee{Rounds: 1200, Glitches: 12, Threshold: 0.01}
	if g2.String() == g.String() {
		t.Error("distinct guarantees render identically")
	}
}
