package experiments

import (
	"math"

	"mzqos/internal/disk"
	"mzqos/internal/model"
	"mzqos/internal/sim"
	"mzqos/internal/workload"
)

// AblationBounds compares the paper's Chernoff bound against the weaker
// machinery of prior work (Chebyshev as in [CL96], the CLT approximation
// as in [CZ94, VGG94]) and against simulated truth (A1).
func AblationBounds(opts Options) (Table, error) {
	m, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "ablation-bounds",
		Title: "Tail machinery on P[round late]: Chernoff vs Chebyshev vs CLT (A1)",
		Header: []string{
			"N", "simulated", "Chernoff (paper)", "Chebyshev [CL96]", "CLT [CZ94]",
		},
	}
	cfg := sim.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	}
	for _, n := range []int{22, 24, 26, 28, 30} {
		cfg.N = n
		est, err := sim.EstimatePLate(cfg, opts.Figure1Trials, opts.Seed+uint64(500+n))
		if err != nil {
			return Table{}, err
		}
		ch, err := m.LateBound(n)
		if err != nil {
			return Table{}, err
		}
		cb, err := m.LateBoundChebyshev(n)
		if err != nil {
			return Table{}, err
		}
		clt, err := m.LateEstimateCLT(n)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%.5f", est.P), f("%.5f", ch), f("%.5f", cb), f("%.5f", clt),
		})
	}
	nCh, err := m.NMaxLate(0.01)
	if err != nil {
		return Table{}, err
	}
	cb, err := m.ExplainNMaxWith(m.LateBoundChebyshev, 0.01)
	if err != nil {
		return Table{}, err
	}
	clt, err := m.ExplainNMaxWith(m.LateEstimateCLT, 0.01)
	if err != nil {
		return Table{}, err
	}
	t.Notes = append(t.Notes,
		f("admitted streams at delta=1%%: Chernoff %d, Chebyshev %d, CLT %d", nCh, cb.NMax, clt.NMax),
		"Chebyshev is a valid bound but admits far fewer streams; the CLT estimate is not a bound and can cross below the simulated tail")
	return t, nil
}

// AblationScan isolates the value of modeling SCAN (Oyang's worst-case
// constant) against the independent-seek model of prior work (A2).
func AblationScan() (Table, error) {
	m, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "ablation-scan",
		Title: "SCAN seek bound vs independent random seeks (A2)",
		Header: []string{
			"N", "SCAN SEEK(N) [ms]", "indep. seeks E [ms]", "round mean SCAN [ms]", "round mean indep [ms]",
		},
	}
	sm, _, err := m.IndependentSeekMoments()
	if err != nil {
		return Table{}, err
	}
	for _, n := range []int{10, 20, 26, 30} {
		scanMean, _, err := m.RoundMoments(n)
		if err != nil {
			return Table{}, err
		}
		indMean, _, err := m.IndependentSeekRoundMoments(n)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			f("%d", n),
			f("%.2f", m.SeekBound(n)*1e3),
			f("%.2f", float64(n)*sm*1e3),
			f("%.1f", scanMean*1e3),
			f("%.1f", indMean*1e3),
		})
	}
	nScan, err := m.NMaxLate(0.01)
	if err != nil {
		return Table{}, err
	}
	indCLT, err := m.ExplainNMaxWith(m.LateEstimateIndependentCLT, 0.01)
	if err != nil {
		return Table{}, err
	}
	indCb, err := m.ExplainNMaxWith(m.LateBoundIndependentChebyshev, 0.01)
	if err != nil {
		return Table{}, err
	}
	t.Notes = append(t.Notes,
		f("admitted streams at delta=1%%: SCAN+Chernoff %d, indep+CLT %d, indep+Chebyshev %d", nScan, indCLT.NMax, indCb.NMax),
		"even the worst-case SCAN constant beats the expected cost of independent seeks at realistic N")
	return t, nil
}

// AblationSizeDist swaps the fragment-size law while holding its first two
// moments fixed (A3). The analytic bound depends only on those moments, so
// it is identical by construction; the simulation shows how far reality
// drifts under heavier tails.
func AblationSizeDist(opts Options) (Table, error) {
	m, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	const n = 28
	analytic, err := m.LateBound(n)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "ablation-sizedist",
		Title:  f("Fragment-size law at equal moments (A3): simulated p_late at N=%d", n),
		Header: []string{"size law", "simulated p_late", "95% CI", "analytic bound"},
	}
	mean, sd := 200*workload.KB, 100*workload.KB
	gamma, err := workload.GammaSizes(mean, sd)
	if err != nil {
		return Table{}, err
	}
	logn, err := workload.LognormalSizes(mean, sd)
	if err != nil {
		return Table{}, err
	}
	pareto, err := workload.ParetoSizes(mean, sd)
	if err != nil {
		return Table{}, err
	}
	for _, szm := range []workload.SizeModel{gamma, logn, pareto} {
		cfg := sim.Config{
			Disk:        disk.QuantumViking21(),
			Sizes:       szm,
			RoundLength: 1,
			N:           n,
		}
		est, err := sim.EstimatePLate(cfg, opts.Figure1Trials, opts.Seed+77)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			szm.Name, f("%.5f", est.P), f("[%.5f, %.5f]", est.Lo, est.Hi), f("%.5f", analytic),
		})
	}
	t.Notes = append(t.Notes,
		"the Gamma-matched analytic bound covers all three laws here: the round total sums N=28 sizes, so moment matching dominates tail shape",
		"the paper notes its derivation also applies directly to Pareto/Lognormal via their own transforms")
	return t, nil
}

// AblationZones quantifies what ignoring zoning (the [NMW97] predecessor
// model) gets wrong on a multi-zone disk (A4).
func AblationZones() (Table, error) {
	mz, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	g := disk.QuantumViking21()
	uni, err := model.New(model.Config{
		Disk:        g.Uniformized(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		return Table{}, err
	}
	// A fully conservative single-zone alternative: assume every request
	// is served at the innermost-zone rate.
	inner, err := disk.SingleZone("viking-innermost", g.Cylinders(), g.RotationTime, g.Zones[0].TrackCapacity, g.Seek)
	if err != nil {
		return Table{}, err
	}
	cons, err := model.New(model.Config{
		Disk:        inner,
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "ablation-zones",
		Title:  "Multi-zone model vs zoning-blind models (A4)",
		Header: []string{"model", "E[T_trans] [ms]", "sd[T_trans] [ms]", "b_late(26)", "N_max (1%)"},
	}
	for _, c := range []struct {
		name string
		m    *model.Model
	}{
		{"multi-zone (this paper)", mz},
		{"mean-capacity single zone [NMW97-style]", uni},
		{"innermost-rate single zone (conservative)", cons},
	} {
		mean, variance := c.m.TransferMoments()
		b, err := c.m.LateBound(26)
		if err != nil {
			return Table{}, err
		}
		nmax, err := c.m.NMaxLate(0.01)
		if err != nil && err != model.ErrOverload {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			c.name, f("%.2f", mean*1e3), f("%.2f", sqrt(variance)*1e3), f("%.5f", b), f("%d", nmax),
		})
	}
	t.Notes = append(t.Notes,
		"zoning raises the variance of the transfer time (rate spread), which the mean-capacity model misses",
		"pricing every request at the innermost rate wastes admissible streams")
	return t, nil
}

// AblationExactLST compares the paper's Gamma-matched transform against
// the exact zone-mixture transform (A6, an extension beyond the paper):
// how much admission headroom does the approximation cost or grant?
func AblationExactLST() (Table, error) {
	approx, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	exact, err := model.New(model.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		Mode:        model.TransferExactMixture,
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "ablation-exactlst",
		Title:  "Gamma-matched vs exact zone-mixture transform (A6)",
		Header: []string{"N", "b_late Gamma-matched (paper)", "b_late exact mixture"},
	}
	for _, n := range []int{22, 24, 26, 28, 30} {
		ba, err := approx.LateBound(n)
		if err != nil {
			return Table{}, err
		}
		be, err := exact.LateBound(n)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{f("%d", n), f("%.5f", ba), f("%.5f", be)})
	}
	na, err := approx.NMaxLate(0.01)
	if err != nil {
		return Table{}, err
	}
	ne, err := exact.NMaxLate(0.01)
	if err != nil {
		return Table{}, err
	}
	t.Notes = append(t.Notes,
		f("N_max at delta=1%%: Gamma-matched %d, exact mixture %d", na, ne),
		"for Gamma fragment sizes the zoned transfer time is itself a finite Gamma mixture, so no approximation is needed; the paper's matching tracks it closely")
	return t, nil
}

// AblationConservatism decomposes the model's conservatism (A7): the gap
// between simulated p_late and the admission bound splits into the
// worst-case SEEK constant (simulation vs the model's exact tail,
// recovered by numerically inverting the round transform) and the
// Chernoff slack (exact tail vs bound).
func AblationConservatism(opts Options) (Table, error) {
	m, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "ablation-conservatism",
		Title: "Where the conservatism lives (A7): simulation vs model tail vs Chernoff bound",
		Header: []string{
			"N", "simulated p_late", "model tail (inversion)", "Chernoff bound",
		},
	}
	cfg := sim.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	}
	for _, n := range []int{26, 27, 28, 29, 30} {
		cfg.N = n
		est, err := sim.EstimatePLate(cfg, opts.Figure1Trials, opts.Seed+uint64(700+n))
		if err != nil {
			return Table{}, err
		}
		inv, err := m.LateProbInversion(n, 64)
		if err != nil {
			return Table{}, err
		}
		ch, err := m.LateBound(n)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%.5f", est.P), f("%.5f", inv), f("%.5f", ch),
		})
	}
	t.Notes = append(t.Notes,
		"simulated <= inversion: the gap is the worst-case Oyang SEEK constant vs real sweeps;",
		"inversion <= Chernoff: the gap is the exponential-bound slack — both are prices of an O(1) admission test")
	return t, nil
}

// AblationApprox reports the Gamma moment-matching approximation error
// against the exact transfer-time distribution (A5).
func AblationApprox() (Table, error) {
	m, err := paperModel()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "ablation-approx",
		Title:  "Gamma approximation vs exact transfer-time distribution (A5)",
		Header: []string{"range [ms]", "max |dCDF|", "max rel dPDF (central mass)", "mean rel dPDF"},
	}
	for _, r := range [][2]float64{{5, 100}, {8, 50}, {2, 150}} {
		rep, err := m.ApproximationError(r[0]/1e3, r[1]/1e3, 96)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			f("%.0f-%.0f", r[0], r[1]), f("%.4f", rep.MaxCDF), f("%.4f", rep.MaxRel), f("%.4f", rep.MeanRel),
		})
	}
	t.Notes = append(t.Notes,
		"paper claims < 2% relative error over 5-100 ms; the distribution-function error meets it with margin,",
		"while the pointwise density error grows toward the range edges where little probability mass lives")
	return t, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
