package buffer

import (
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/model"
	"mzqos/internal/sim"
	"mzqos/internal/workload"
)

func paperModel(t testing.TB) *model.Model {
	t.Helper()
	m, err := model.New(model.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVisibleGlitchBoundMatchesBaseAtZeroSlack(t *testing.T) {
	m := paperModel(t)
	b0, err := VisibleGlitchBound(m, 26, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := m.GlitchBound(26)
	if err != nil {
		t.Fatal(err)
	}
	if diff := b0 - bg; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("s=0 visible bound %v != base glitch bound %v", b0, bg)
	}
}

func TestSlackShrinksGlitchBound(t *testing.T) {
	m := paperModel(t)
	prev := 2.0
	for s := 0; s <= 3; s++ {
		b, err := VisibleGlitchBound(m, 28, s)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Errorf("slack %d: bound %v not below previous %v", s, b, prev)
		}
		prev = b
	}
	// One round of slack already crushes the visible-glitch probability:
	// the sweep would have to overrun by a whole round.
	b1, _ := VisibleGlitchBound(m, 28, 1)
	if b1 > 1e-9 {
		t.Errorf("one-round slack bound = %v, expected tiny", b1)
	}
}

func TestNMaxBufferedGrowsWithSlack(t *testing.T) {
	m := paperModel(t)
	n0, err := NMaxBuffered(m, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NMaxBuffered(m, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(n1 > n0) {
		t.Errorf("slack did not grow admission: %d -> %d", n0, n1)
	}
	// Capacity is ceilinged by sweep stability (E[T_N] < t ⇒ N ≈ 33 on
	// this configuration), however much the client buffers.
	if n1 > 33 {
		t.Errorf("buffered N_max = %d exceeds the stability ceiling", n1)
	}
	n5, err := NMaxBuffered(m, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if n5 > 33 {
		t.Errorf("deep-buffer N_max = %d exceeds the stability ceiling", n5)
	}
}

// TestBufferedGolden pins, bit for bit, the buffered admission limit at
// slack 0…3 and the visible-glitch bound at N = 28 on both disk profiles:
// the values of the warm-started chain at (1+s)·t.
func TestBufferedGolden(t *testing.T) {
	for _, tc := range []struct {
		geom *disk.Geometry
		nmax [4]int
		b28  [4]float64
	}{
		{disk.QuantumViking21(), [4]int{29, 33, 33, 33},
			[4]float64{0.002360746514709839, 9.084351575661501e-39, 5.763646987898739e-91, 2.561268741379586e-149}},
		{disk.Synthetic2000(), [4]int{95, 99, 99, 99},
			[4]float64{6.131445747418233e-124, 0, 0, 0}},
	} {
		m, err := model.New(model.Config{Disk: tc.geom, Sizes: workload.PaperSizes(), RoundLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s <= 3; s++ {
			n, err := NMaxBuffered(m, s, 0.01)
			if err != nil || n != tc.nmax[s] {
				t.Errorf("%s: NMaxBuffered(s=%d) = %d, %v; want %d", tc.geom.Name, s, n, err, tc.nmax[s])
			}
			b, err := VisibleGlitchBound(m, 28, s)
			if want := tc.b28[s]; err != nil || math.Float64bits(b) != math.Float64bits(want) {
				t.Errorf("%s: VisibleGlitchBound(28, s=%d) = %v, %v; want %v", tc.geom.Name, s, b, err, want)
			}
		}
	}
}

// TestNMaxBufferedSolverWork: buffered admission walks one chain at
// (1+s)·t, so on a fresh model it costs one cold solve at k = 1 and one
// warm solve per further stream count up to the binding one, where the
// stability rule rejects. The counters are process-wide, so the test takes
// deltas and must not run in parallel.
func TestNMaxBufferedSolverWork(t *testing.T) {
	m := paperModel(t)
	before := model.Telemetry()
	n, err := NMaxBuffered(m, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	after := model.Telemetry()
	cold, warm := after.ColdSolves-before.ColdSolves, after.WarmSolves-before.WarmSolves
	if cold != 1 || cold+warm != int64(n+1) {
		t.Errorf("NMaxBuffered(s=1) = %d ran %d cold and %d warm solves; want 1 cold and %d in all", n, cold, warm, n+1)
	}
}

func TestBoundValidation(t *testing.T) {
	m := paperModel(t)
	if _, err := VisibleGlitchBound(nil, 5, 0); err != ErrConfig {
		t.Errorf("nil model err = %v", err)
	}
	if _, err := VisibleGlitchBound(m, 0, 0); err != ErrConfig {
		t.Errorf("n=0 err = %v", err)
	}
	if _, err := VisibleGlitchBound(m, 5, -1); err != ErrConfig {
		t.Errorf("negative slack err = %v", err)
	}
	if _, err := NMaxBuffered(m, 0, 0); err != ErrConfig {
		t.Errorf("delta=0 err = %v", err)
	}
}

func simCfg(n int) sim.Config {
	return sim.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		N:           n,
	}
}

func TestSimulateSlackEliminatesVisibleGlitches(t *testing.T) {
	// At N=30 (past the paper's limit) raw lateness is common, but one
	// round of client slack hides nearly all of it.
	res0, err := Simulate(SimConfig{Sim: simCfg(30)}, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res0.RawLateRate == 0 {
		t.Fatal("expected raw lateness at N=30")
	}
	if res0.VisibleGlitchRate != res0.RawLateRate {
		t.Errorf("s=0: visible %v != raw %v", res0.VisibleGlitchRate, res0.RawLateRate)
	}
	res1, err := Simulate(SimConfig{Sim: simCfg(30), SlackRounds: 1}, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !(res1.VisibleGlitchRate < res0.VisibleGlitchRate/5) {
		t.Errorf("slack 1 visible rate %v vs raw %v: expected large reduction",
			res1.VisibleGlitchRate, res0.VisibleGlitchRate)
	}
}

func TestSimulateBoundDominates(t *testing.T) {
	m := paperModel(t)
	for _, s := range []int{0, 1} {
		res, err := Simulate(SimConfig{Sim: simCfg(28), SlackRounds: s}, 6000, 21)
		if err != nil {
			t.Fatal(err)
		}
		b, err := VisibleGlitchBound(m, 28, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.VisibleGlitchRate > b+0.005 {
			t.Errorf("slack %d: simulated %v above bound %v", s, res.VisibleGlitchRate, b)
		}
	}
}

func TestSimulateOverrunAccounting(t *testing.T) {
	res, err := Simulate(SimConfig{Sim: simCfg(32)}, 3000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawLateRate == 0 {
		t.Error("N=32 should overrun sometimes")
	}
	if !(res.MeanOverrun > 0) {
		t.Error("mean overrun should be positive when overruns happen")
	}
	if res.MeanOverrun > 0.5 {
		t.Errorf("mean overrun %v s looks too large for N=32", res.MeanOverrun)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{}, 10, 1); err != ErrConfig {
		t.Errorf("empty config err = %v", err)
	}
	if _, err := Simulate(SimConfig{Sim: simCfg(5), SlackRounds: -1}, 10, 1); err != ErrConfig {
		t.Errorf("negative slack err = %v", err)
	}
	if _, err := Simulate(SimConfig{Sim: simCfg(5)}, 0, 1); err != ErrConfig {
		t.Errorf("zero rounds err = %v", err)
	}
}

// TestSimulateRefusesUnbuiltGeometry: a geometry disk.New did not build
// (the zero value, a struct literal) has no address map; Simulate refuses
// it as ErrConfig before the first draw.
func TestSimulateRefusesUnbuiltGeometry(t *testing.T) {
	v := disk.QuantumViking21()
	for _, g := range []*disk.Geometry{{}, {Name: "literal", RotationTime: v.RotationTime, Zones: v.Zones, Seek: v.Seek}} {
		cfg := SimConfig{Sim: simCfg(5)}
		cfg.Sim.Disk = g
		if _, err := Simulate(cfg, 10, 1); err != ErrConfig {
			t.Errorf("geometry %q: Simulate err = %v, want ErrConfig", g.Name, err)
		}
	}
}

func TestClientBufferBytes(t *testing.T) {
	// Minimum double buffer at s=0, one extra fragment per slack round.
	if ClientBufferBytes(200, 0) != 400 {
		t.Error("double buffer wrong")
	}
	if ClientBufferBytes(200, 3) != 1000 {
		t.Error("slack buffer wrong")
	}
}

func TestWorkConservingNotWorse(t *testing.T) {
	gated, err := Simulate(SimConfig{Sim: simCfg(30), SlackRounds: 1}, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := Simulate(SimConfig{Sim: simCfg(30), SlackRounds: 1, WorkConserving: true}, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	if wc.VisibleGlitchRate > gated.VisibleGlitchRate+0.003 {
		t.Errorf("work-conserving visible rate %v above gated %v",
			wc.VisibleGlitchRate, gated.VisibleGlitchRate)
	}
}

// TestWorkConservingBanksIdleTime: starting each sweep at the previous
// completion, not at the round boundary, carries the idle tail of every
// short sweep forward as slack, so fewer fragments miss their own round
// boundary.
func TestWorkConservingBanksIdleTime(t *testing.T) {
	gated, err := Simulate(SimConfig{Sim: simCfg(30)}, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := Simulate(SimConfig{Sim: simCfg(30), WorkConserving: true}, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	if gated.RawLateRate == 0 {
		t.Fatal("gated run has no late fragments at N=30; the comparison is vacuous")
	}
	if wc.RawLateRate >= gated.RawLateRate {
		t.Errorf("work-conserving raw late rate %v not below gated %v", wc.RawLateRate, gated.RawLateRate)
	}
}
