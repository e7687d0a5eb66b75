package model

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/sim"
	"mzqos/internal/workload"
)

// faultDelta is the per-round guarantee the fault tests admit at.
const faultDelta = 0.01

// healthyModel is the paper's workload on g at a one-second round.
func healthyModel(t testing.TB, g *disk.Geometry) *Model {
	t.Helper()
	m, err := New(Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// underFault returns m's model of the same disk under the effects e.
func underFault(t testing.TB, m *Model, e fault.Effects) *Model {
	t.Helper()
	u, err := m.Under(e)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sameBounds holds got to want: equal N_max at faultDelta, and b_late(n)
// within 5e-6 relative for every n through N_max + 3. The solver's
// precision is on the bound's exponent ln b, so a bound under 1e-12 is held
// to 5e-6 of its exponent instead: at 1e-158 an exponent gap of 5e-7 of
// itself moves the bound by 2e-4 of itself.
func sameBounds(t *testing.T, name string, got, want *Model) {
	t.Helper()
	gn, err := got.NMaxLate(faultDelta)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wn, err := want.NMaxLate(faultDelta)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if gn != wn {
		t.Errorf("%s: N_max = %d, want %d", name, gn, wn)
	}
	for n := 1; n <= wn+3; n++ {
		g, err := got.LateBound(n)
		if err != nil {
			t.Fatalf("%s: b_late(%d): %v", name, n, err)
		}
		w, err := want.LateBound(n)
		if err != nil {
			t.Fatalf("%s: reference b_late(%d): %v", name, n, err)
		}
		rel := math.Abs(g-w) / w
		if w < 1e-12 {
			rel = math.Abs(math.Log(g)-math.Log(w)) / -math.Log(w)
		}
		if !(rel <= 5e-6) {
			t.Errorf("%s: b_late(%d) = %.9g, want %.9g (relative gap %.2g)", name, n, g, w, rel)
		}
	}
}

// TestFaultEquivalences holds a latency and a zone-rate fault to healthy
// models they are equivalent to. A latency factor L stretches seek,
// rotation and transfer alike, so T_N' = L·T_N and the bound at t is the
// healthy bound at t/L. A rate factor R divides every transfer time by R,
// so its model is the healthy disk's with transfer moments mean/R and
// variance/R².
func TestFaultEquivalences(t *testing.T) {
	for _, g := range []*disk.Geometry{disk.QuantumViking21(), disk.Synthetic2000()} {
		healthy := healthyModel(t, g)
		for _, l := range []float64{1.3, 1.5, 1.6, 2.5} {
			ref, err := New(Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1 / l})
			if err != nil {
				t.Fatal(err)
			}
			sameBounds(t, fmt.Sprintf("%s latency x%g", g.Name, l),
				underFault(t, healthy, fault.Effects{LatencyScale: l, RateScale: 1}), ref)
		}
		mean, variance := healthy.TransferMoments()
		for _, r := range []float64{0.4, 0.7} {
			ref, err := New(Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1,
				TransferMean: mean / r, TransferVar: variance / (r * r)})
			if err != nil {
				t.Fatal(err)
			}
			sameBounds(t, fmt.Sprintf("%s rate x%g", g.Name, r),
				underFault(t, healthy, fault.Effects{LatencyScale: 1, RateScale: r}), ref)
		}
	}
}

// TestExactMixtureUnderFaults holds the exact zone mixture to the same
// equivalences: a latency fault to the healthy mixture at t/L, a rate
// fault to the mixture of a disk whose every track holds R times as much.
func TestExactMixtureUnderFaults(t *testing.T) {
	exact := func(g *disk.Geometry, roundLength float64) *Model {
		m, err := New(Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: roundLength, Mode: TransferExactMixture})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, g := range []*disk.Geometry{disk.QuantumViking21(), disk.Synthetic2000()} {
		healthy := exact(g, 1)
		for _, l := range []float64{1.3, 2.5} {
			sameBounds(t, fmt.Sprintf("%s exact latency x%g", g.Name, l),
				underFault(t, healthy, fault.Effects{LatencyScale: l, RateScale: 1}), exact(g, 1/l))
		}
		for _, r := range []float64{0.4, 0.7} {
			zones := make([]disk.Zone, len(g.Zones))
			for i, z := range g.Zones {
				zones[i] = disk.Zone{Tracks: z.Tracks, TrackCapacity: z.TrackCapacity * r}
			}
			slow, err := disk.New(g.Name, g.RotationTime, zones, g.Seek)
			if err != nil {
				t.Fatal(err)
			}
			sameBounds(t, fmt.Sprintf("%s exact rate x%g", g.Name, r),
				underFault(t, healthy, fault.Effects{LatencyScale: 1, RateScale: r}), exact(slow, 1))
		}
	}
}

// TestReadErrorBoundCoversSim holds the degraded promise under transient
// read errors to the simulated disk: at the degraded N_max, b_late must
// reach at least the lower end of sim's 95 % interval for the late
// probability under the same plan, and that simulated probability must
// lie within δ. A retry law matched only in its mean fails both where p
// and r are large: the Chernoff solve reads the whole MGF.
func TestReadErrorBoundCoversSim(t *testing.T) {
	g := disk.QuantumViking21()
	healthy := healthyModel(t, g)
	for _, c := range []struct {
		p float64
		r int
	}{{0.5, 3}, {0.6, 16}, {0.8, 32}, {0.02, 2}} {
		eff := fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: c.p, Retries: c.r}
		m := underFault(t, healthy, eff)
		n, err := m.NMaxLate(faultDelta)
		if err != nil {
			t.Fatalf("(%g, %d): %v", c.p, c.r, err)
		}
		b, err := m.LateBound(n)
		if err != nil {
			t.Fatal(err)
		}
		plan := &fault.Plan{Faults: []fault.Fault{{Kind: fault.ReadError, Disk: fault.AllDisks, Prob: c.p, Retries: c.r}}}
		est, err := sim.EstimatePLate(sim.Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: 1, N: n, Faults: plan}, 100_000, 7)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("(%g, %d): N_max %d, b_late %.5f, sim %.5f [%.5f, %.5f]", c.p, c.r, n, b, est.P, est.Lo, est.Hi)
		if b < est.Lo {
			t.Errorf("(%g, %d): b_late(%d) = %.5f is below sim's interval [%.5f, %.5f]", c.p, c.r, n, b, est.Lo, est.Hi)
		}
		if est.P > faultDelta {
			t.Errorf("(%g, %d): sim at N_max %d reads %.5f, past δ = %g", c.p, c.r, n, est.P, faultDelta)
		}
	}
}

// TestUnderEdges: effects that leave T_N as it is return the model itself,
// a failed disk and a model already under faults are refused, and the
// retry law's mean is the expected retry revolutions.
func TestUnderEdges(t *testing.T) {
	m := healthyModel(t, disk.QuantumViking21())
	for _, e := range []fault.Effects{
		fault.Identity(),
		{LatencyScale: 1, RateScale: 1, ErrorProb: 0, Retries: 4}, // no errors
	} {
		if u, err := m.Under(e); err != nil || u != m {
			t.Errorf("Under(%+v) = %p, %v; want the model itself", e, u, err)
		}
	}
	// Errors with no retries cost no time but lose every read that fails:
	// the same round transform, every glitch bound p higher.
	for _, e := range []fault.Effects{
		{LatencyScale: 1, RateScale: 1, ErrorProb: 0.3},
		{LatencyScale: 1, RateScale: 1, ErrorProb: 1, Retries: 0}, // every read lost at once
	} {
		u := underFault(t, m, e)
		for _, n := range []int{1, 26, 40} {
			bl, _ := m.LateBound(n)
			ul, _ := u.LateBound(n)
			bg, _ := m.GlitchBound(n)
			ug, _ := u.GlitchBound(n)
			if math.Float64bits(ul) != math.Float64bits(bl) || ug != min(bg+e.ErrorProb, 1) {
				t.Errorf("under %+v at n=%d: b_late %v, b_glitch %v; want the healthy %v and %v + p",
					e, n, ul, ug, bl, bg)
			}
		}
	}
	faulted := underFault(t, m, fault.Effects{LatencyScale: 2, RateScale: 1})
	for _, c := range []struct {
		m *Model
		e fault.Effects
	}{
		{m, fault.Effects{LatencyScale: 1, RateScale: 1, Failed: true}},
		{m, fault.Effects{LatencyScale: math.Inf(1), RateScale: 1}},
		{m, fault.Effects{LatencyScale: 1, RateScale: 0}},
		{m, fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: math.NaN(), Retries: 1}},
		{m, fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 0.5, Retries: fault.MaxRetries + 1}},
		{faulted, fault.Effects{LatencyScale: 2, RateScale: 1}},
	} {
		if _, err := c.m.Under(c.e); !errors.Is(err, ErrConfig) {
			t.Errorf("Under(%+v) = %v, want ErrConfig", c.e, err)
		}
	}
	rev := disk.QuantumViking21().RotationTime * 1.5
	for _, c := range []struct {
		p float64
		r int
	}{{0.5, 3}, {1, 4}, {0.95, 255}} {
		law, err := retryLaw(c.p, c.r, rev)
		if err != nil {
			t.Fatal(err)
		}
		// Attempt k is retried when attempts 1..k fail: E[R] = Σ_{k=1..r} p^k.
		want, pk := 0.0, 1.0
		for range c.r {
			pk *= c.p
			want += pk * rev
		}
		if got := law.Mean(); math.Abs(got-want) > 1e-12*want {
			t.Errorf("(%g, %d): mean retry delay %g, want %g", c.p, c.r, got, want)
		}
	}
}
