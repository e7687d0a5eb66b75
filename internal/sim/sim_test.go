package sim

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

func paperConfig(t testing.TB, n int) Config {
	t.Helper()
	return Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		N:           n,
	}
}

func TestEstimatePLateValidation(t *testing.T) {
	if _, err := EstimatePLate(Config{}, 10, 1); err != ErrConfig {
		t.Errorf("empty config err = %v", err)
	}
	cfg := paperConfig(t, 26)
	if _, err := EstimatePLate(cfg, 0, 1); err != ErrConfig {
		t.Errorf("zero trials err = %v", err)
	}
	bad := cfg
	bad.N = 0
	if _, err := EstimatePLate(bad, 10, 1); err != ErrConfig {
		t.Errorf("N=0 err = %v", err)
	}
}

// TestRefusesUnbuiltGeometry: a geometry disk.New did not build (the zero
// value, a struct literal) has no address map, so the estimators refuse it
// as ErrConfig before a worker draws a location from it.
func TestRefusesUnbuiltGeometry(t *testing.T) {
	v := disk.QuantumViking21()
	for _, g := range []*disk.Geometry{{}, {Name: "literal", RotationTime: v.RotationTime, Zones: v.Zones, Seek: v.Seek}} {
		cfg := paperConfig(t, 26)
		cfg.Disk = g
		if _, err := EstimatePLate(cfg, 10, 1); !errors.Is(err, ErrConfig) {
			t.Errorf("geometry %q: EstimatePLate err = %v, want ErrConfig", g.Name, err)
		}
		if _, err := ReplayRounds(cfg, 10, 1); !errors.Is(err, ErrConfig) {
			t.Errorf("geometry %q: ReplayRounds err = %v, want ErrConfig", g.Name, err)
		}
	}
}

func TestRoundMomentsMatchModel(t *testing.T) {
	// The simulator's mean round time must sit below the analytic mean
	// (which carries the worst-case SEEK constant) but within a seek
	// budget of it; the standard deviations should agree closely.
	cfg := paperConfig(t, 26)
	st, err := MeasureRounds(cfg, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(model.Config{Disk: cfg.Disk, Sizes: cfg.Sizes, RoundLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	am, av, err := m.RoundMoments(26)
	if err != nil {
		t.Fatal(err)
	}
	if !(st.Mean < am) {
		t.Errorf("simulated mean %v not below analytic mean %v (SEEK is worst-case)", st.Mean, am)
	}
	if am-st.Mean > m.SeekBound(26) {
		t.Errorf("simulated mean %v too far below analytic %v", st.Mean, am)
	}
	asd := math.Sqrt(av)
	if math.Abs(st.Std-asd) > 0.15*asd {
		t.Errorf("simulated std %v vs analytic %v", st.Std, asd)
	}
}

func TestAnalyticBoundDominatesSimulation(t *testing.T) {
	// Figure 1's central claim: the analytic bound is conservative — it
	// always sits above the simulated p_late.
	m, err := model.New(model.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{24, 26, 28, 30} {
		cfg := paperConfig(t, n)
		est, err := EstimatePLate(cfg, 30000, 11)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := m.LateBound(n)
		if err != nil {
			t.Fatal(err)
		}
		if est.Lo > bound {
			t.Errorf("N=%d: simulated p_late %v (CI lo %v) above analytic bound %v",
				n, est.P, est.Lo, bound)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	// Simulation sustains N=28 at the 1%-lateness level (paper §4) while
	// the analytic model only admits 26: check the simulated curve is low
	// at 28 and clearly above 1% by 31.
	cfg := paperConfig(t, 28)
	e28, err := EstimatePLate(cfg, 30000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e28.P > 0.02 {
		t.Errorf("simulated p_late(28) = %v, paper says the system sustains 28 at ≈1%%", e28.P)
	}
	cfg.N = 31
	e31, err := EstimatePLate(cfg, 30000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e31.P < 0.02 {
		t.Errorf("simulated p_late(31) = %v, expected clearly above 1%%", e31.P)
	}
	if !(e31.P > e28.P) {
		t.Errorf("p_late not increasing: %v at 28 vs %v at 31", e28.P, e31.P)
	}
}

func TestPLateSweepMonotoneTrend(t *testing.T) {
	cfg := paperConfig(t, 1)
	ests, err := PLateSweep(cfg, 24, 30, 12000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 7 {
		t.Fatalf("sweep length = %d", len(ests))
	}
	// Endpoint comparison is statistically robust even at modest trials.
	if !(ests[len(ests)-1].P > ests[0].P) {
		t.Errorf("sweep not increasing: %v ... %v", ests[0].P, ests[len(ests)-1].P)
	}
	for _, e := range ests {
		if e.Lo > e.P || e.Hi < e.P {
			t.Errorf("Wilson interval [%v,%v] excludes estimate %v", e.Lo, e.Hi, e.P)
		}
	}
	if _, err := PLateSweep(cfg, 0, 5, 10, 1); err != ErrConfig {
		t.Errorf("invalid sweep err = %v", err)
	}
	if _, err := PLateSweep(cfg, 5, 4, 10, 1); err != ErrConfig {
		t.Errorf("reversed sweep err = %v", err)
	}
}

func TestEstimatePErrorTable2Shape(t *testing.T) {
	// Table 2 simulated column: p_error stays ~0 at N=28 and is
	// substantial at N=32 (paper: 0.454).
	cfg := paperConfig(t, 28)
	e, err := EstimatePError(cfg, 300, 3, 24, 17) // scaled-down M,g at same g/M ratio
	if err != nil {
		t.Fatal(err)
	}
	if e.P > 0.02 {
		t.Errorf("p_error(28) = %v, expected ≈0", e.P)
	}
	cfg.N = 32
	e32, err := EstimatePError(cfg, 300, 3, 24, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !(e32.P > e.P) && e32.P < 0.1 {
		t.Errorf("p_error(32) = %v, expected substantial", e32.P)
	}
}

func TestEstimatePErrorValidation(t *testing.T) {
	cfg := paperConfig(t, 26)
	if _, err := EstimatePError(cfg, 0, 0, 1, 1); err != ErrConfig {
		t.Errorf("M=0 err = %v", err)
	}
	if _, err := EstimatePError(cfg, 10, 11, 1, 1); err != ErrConfig {
		t.Errorf("g>M err = %v", err)
	}
	if _, err := EstimatePError(cfg, 10, 1, 0, 1); err != ErrConfig {
		t.Errorf("runs=0 err = %v", err)
	}
}

func TestDeterministicSeeding(t *testing.T) {
	cfg := paperConfig(t, 26)
	cfg.Workers = 2
	a, err := EstimatePLate(cfg, 5000, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimatePLate(cfg, 5000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hits != b.Hits {
		t.Errorf("same seed, different results: %d vs %d", a.Hits, b.Hits)
	}
	c, err := EstimatePLate(cfg, 5000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hits == c.Hits {
		t.Logf("different seeds produced identical hit counts (possible but unlikely)")
	}
}

func TestWorkerSplitCoversAllTrials(t *testing.T) {
	cfg := paperConfig(t, 10)
	for _, workers := range []int{1, 3, 7} {
		cfg.Workers = workers
		e, err := EstimatePLate(cfg, 1001, 5)
		if err != nil {
			t.Fatal(err)
		}
		if e.Trials != 1001 {
			t.Errorf("workers=%d: trials = %d, want 1001", workers, e.Trials)
		}
	}
}

func TestMeasureRoundsValidation(t *testing.T) {
	if _, err := MeasureRounds(Config{}, 10, 1); err != ErrConfig {
		t.Errorf("empty config err = %v", err)
	}
	cfg := paperConfig(t, 5)
	if _, err := MeasureRounds(cfg, 0, 1); err != ErrConfig {
		t.Errorf("zero trials err = %v", err)
	}
}

func TestPositionBias(t *testing.T) {
	cfg := paperConfig(t, 30)
	ests, err := PositionBias(cfg, 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 30 {
		t.Fatalf("positions = %d", len(ests))
	}
	// Early positions essentially never glitch; the last position is by
	// far the most exposed.
	if ests[0].P > 1e-4 {
		t.Errorf("first position glitch rate = %v", ests[0].P)
	}
	last := ests[29].P
	if !(last > 10*ests[10].P) {
		t.Errorf("last position %v not much above mid position %v", last, ests[10].P)
	}
	// Summed positional probabilities equal N·p_glitch; cross-check the
	// per-round lateness: P[round late] = P[last position late].
	plate, err := EstimatePLate(cfg, 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diff := last - plate.P; diff > 0.01 || diff < -0.01 {
		t.Errorf("last-position rate %v vs p_late %v", last, plate.P)
	}
}

func TestPositionBiasValidation(t *testing.T) {
	if _, err := PositionBias(Config{}, 10, 1); err != ErrConfig {
		t.Errorf("empty config err = %v", err)
	}
	cfg := paperConfig(t, 5)
	if _, err := PositionBias(cfg, 0, 1); err != ErrConfig {
		t.Errorf("zero trials err = %v", err)
	}
}

func TestLowLoadNeverLate(t *testing.T) {
	// A single 200 KB request per 1 s round can essentially never be late.
	cfg := paperConfig(t, 1)
	e, err := EstimatePLate(cfg, 20000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if e.Hits != 0 {
		t.Errorf("p_late(1) hits = %d, expected 0", e.Hits)
	}
}

// TestEstimatorsIdenticalAcrossProcs: an estimator's goroutine count is
// min(GOMAXPROCS, shares), and what it returns must not depend on it — with
// the default shares, every stationary estimator gives the same answer for
// a seed at 1, 2 and 8 Ps.
func TestEstimatorsIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := paperConfig(t, 28)
	run := func() []any {
		plate, err := EstimatePLate(cfg, 3001, 11)
		if err != nil {
			t.Fatal(err)
		}
		perr, err := EstimatePError(cfg, 40, 1, 13, 11)
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := MeasureRounds(cfg, 2001, 11)
		if err != nil {
			t.Fatal(err)
		}
		bias, err := PositionBias(cfg, 2001, 11)
		if err != nil {
			t.Fatal(err)
		}
		return []any{plate, perr, rounds, bias}
	}
	var want []any
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS %d: estimate %d is %+v, at GOMAXPROCS 1 %+v", procs, i, got[i], want[i])
			}
		}
	}
}
