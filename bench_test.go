// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's experiment index). Each BenchmarkTableX/BenchmarkFigureX
// measures one full regeneration of that artifact; simulated variants use
// scaled trial counts so an iteration stays in the tens of milliseconds.
// Run the mzexp command for full paper-scale regeneration. The admission
// and round-path micro-benchmarks live beside their packages under
// internal/ (model, cluster, slo, journal, history, server).
package mzqos_test

import (
	"io"
	"testing"

	"mzqos"
	"mzqos/internal/experiments"
	"mzqos/internal/sim"
)

func newPaperModel(b *testing.B) *mzqos.Model {
	b.Helper()
	m, err := mzqos.NewModel(mzqos.ModelConfig{
		Disk:        mzqos.QuantumViking21(),
		Sizes:       mzqos.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.Figure1Trials = 2000
	o.Table2Runs = 4
	return o
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(io.Discard)
	}
}

// --- Tables and figures ---

// BenchmarkTable1 regenerates the disk/data characteristics table.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkExampleSingleZone regenerates the §3.1 worked example (E1):
// Chernoff bounds on a conventional disk.
func BenchmarkExampleSingleZone(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkExampleMultiZone regenerates the §3.2 worked example (E2):
// Chernoff bounds with the zoned transfer-rate model.
func BenchmarkExampleMultiZone(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkExampleGlitch regenerates the §3.3 worked example (E3): the
// per-stream glitch-count bound.
func BenchmarkExampleGlitch(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkFigure1Analytic computes the analytic b_late series of Figure 1.
func BenchmarkFigure1Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := newPaperModel(b) // fresh model: no memoized bounds
		for n := 20; n <= 32; n++ {
			if _, err := m.LateBound(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure1Simulated measures the simulated p_late series of
// Figure 1 at a fixed 2000 rounds per N.
func BenchmarkFigure1Simulated(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkTable2Analytic computes the analytic p_error column of Table 2.
func BenchmarkTable2Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := newPaperModel(b)
		for n := 28; n <= 32; n++ {
			if _, err := m.StreamErrorBound(n, 1200, 12); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Simulated regenerates Table 2 with scaled-down stream
// histories (the full paper-scale run is `mzexp -run table2`).
func BenchmarkTable2Simulated(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkWorstCase regenerates the deterministic-baseline comparison
// (eq. 4.1).
func BenchmarkWorstCase(b *testing.B) { runExperiment(b, "worstcase") }

// --- Ablations ---

// BenchmarkAblationBounds compares Chernoff/Chebyshev/CLT machinery (A1).
func BenchmarkAblationBounds(b *testing.B) { runExperiment(b, "ablation-bounds") }

// BenchmarkAblationScan compares SCAN vs independent seeks (A2).
func BenchmarkAblationScan(b *testing.B) { runExperiment(b, "ablation-scan") }

// BenchmarkAblationSizeDist swaps the fragment-size law (A3).
func BenchmarkAblationSizeDist(b *testing.B) { runExperiment(b, "ablation-sizedist") }

// BenchmarkAblationZones compares zoning-aware vs zoning-blind models (A4).
func BenchmarkAblationZones(b *testing.B) { runExperiment(b, "ablation-zones") }

// BenchmarkAblationApprox measures the Gamma-approximation error report (A5).
func BenchmarkAblationApprox(b *testing.B) { runExperiment(b, "ablation-approx") }

// BenchmarkAblationExactLST compares the Gamma-matched and exact
// zone-mixture transforms (A6).
func BenchmarkAblationExactLST(b *testing.B) { runExperiment(b, "ablation-exactlst") }

// BenchmarkAblationConservatism decomposes bound conservatism via
// transform inversion (A7).
func BenchmarkAblationConservatism(b *testing.B) { runExperiment(b, "ablation-conservatism") }

// --- Extensions (the paper's §6 future work and §2.2 placement outlook) ---

// BenchmarkExtMixed regenerates the mixed-workload trade-off table.
func BenchmarkExtMixed(b *testing.B) { runExperiment(b, "ext-mixed") }

// BenchmarkExtBuffers regenerates the client-buffering table.
func BenchmarkExtBuffers(b *testing.B) { runExperiment(b, "ext-buffers") }

// BenchmarkExtPlacement regenerates the zone-aware placement table.
func BenchmarkExtPlacement(b *testing.B) { runExperiment(b, "ext-placement") }

// BenchmarkExtGSS regenerates the Group Sweeping Scheduling trade-off.
func BenchmarkExtGSS(b *testing.B) { runExperiment(b, "ext-gss") }

// BenchmarkDiagPositionBias regenerates the SCAN position-bias diagnostic.
func BenchmarkDiagPositionBias(b *testing.B) { runExperiment(b, "diag-positionbias") }

// --- Micro-benchmarks of the Monte-Carlo and trace generators ---

// BenchmarkSimulatedRound measures one simulated SCAN round at N=26
// (amortized over a 1000-round batch).
func BenchmarkSimulatedRound(b *testing.B) {
	cfg := sim.Config{
		Disk:        mzqos.QuantumViking21(),
		Sizes:       mzqos.PaperSizes(),
		RoundLength: 1,
		N:           26,
		Workers:     1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimatePLate(cfg, 1000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthesizing one minute of MPEG-like
// VBR frames.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := mzqos.DefaultTraceConfig()
	rng := mzqos.NewRand(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := mzqos.GenerateTrace(cfg, 60, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mzqos.FragmentTrace(frames, cfg.FrameRate, 1); err != nil {
			b.Fatal(err)
		}
	}
}
