package mixed

import (
	"errors"
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

func testConfig(t testing.TB) Config {
	t.Helper()
	discrete, err := workload.GammaSizes(40*workload.KB, 30*workload.KB)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Disk:            disk.QuantumViking21(),
		RoundLength:     1,
		Reserve:         0.2,
		ContinuousSizes: workload.PaperSizes(),
		DiscreteSizes:   discrete,
		DiscreteRate:    5,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should error")
	}
	cfg := testConfig(t)
	bad := cfg
	bad.Reserve = 1
	if _, err := New(bad); err == nil {
		t.Error("reserve=1 should error")
	}
	bad = cfg
	bad.Reserve = -0.1
	if _, err := New(bad); err == nil {
		t.Error("negative reserve should error")
	}
	bad = cfg
	bad.DiscreteRate = -1
	if _, err := New(bad); err == nil {
		t.Error("negative rate should error")
	}
	bad = cfg
	bad.DiscreteSizes = workload.SizeModel{}
	if _, err := New(bad); err == nil {
		t.Error("missing discrete sizes should error")
	}
}

func TestReserveShrinksContinuousAdmission(t *testing.T) {
	cfg := testConfig(t)
	points, err := TradeOff(cfg, []float64{0, 0.1, 0.2, 0.3, 0.5}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].ContinuousNMax != 26 {
		t.Errorf("reserve 0: N_max = %d, want 26 (pure-continuous paper value)", points[0].ContinuousNMax)
	}
	for i := 1; i < len(points); i++ {
		if points[i].ContinuousNMax > points[i-1].ContinuousNMax {
			t.Errorf("N_max not nonincreasing in reserve: %+v", points)
		}
	}
	// With half the round reserved, far fewer streams fit.
	if last := points[len(points)-1]; last.ContinuousNMax >= 20 {
		t.Errorf("reserve 0.5: N_max = %d, expected well below 20", last.ContinuousNMax)
	}
}

func TestDiscreteMomentsPositive(t *testing.T) {
	m, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := m.dMean, m.dVar
	// ~8.5 ms random seek + 4.2 ms half rotation + ~5 ms transfer.
	if mean < 0.008 || mean > 0.04 {
		t.Errorf("discrete service mean = %v s", mean)
	}
	if !(variance > 0) {
		t.Errorf("discrete service variance = %v", variance)
	}
}

func TestDiscreteUtilizationAndCapacity(t *testing.T) {
	m, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	rho := m.DiscreteUtilization()
	mean := m.dMean
	want := 5 * mean / 0.2
	if math.Abs(rho-want) > 1e-12 {
		t.Errorf("rho = %v, want %v", rho, want)
	}
	rate, err := m.MaxDiscreteRate(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-0.8*0.2/mean) > 1e-9 {
		t.Errorf("max rate = %v", rate)
	}
	if _, err := m.MaxDiscreteRate(0); err == nil {
		t.Error("zero target should error")
	}
}

func TestZeroReserveEdge(t *testing.T) {
	cfg := testConfig(t)
	cfg.Reserve = 0
	cfg.DiscreteRate = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.DiscreteUtilization() != 0 {
		t.Errorf("rho with no load = %v", m.DiscreteUtilization())
	}
	resp, err := m.DiscreteResponseEstimate()
	if err != nil {
		t.Fatal(err)
	}
	mean := m.dMean
	if resp != mean {
		t.Errorf("no-load response = %v, want bare service %v", resp, mean)
	}
	cfg.DiscreteRate = 1
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(m2.DiscreteUtilization(), 1) {
		t.Error("load with zero reserve should be unstable")
	}
	if _, err := m2.DiscreteResponseEstimate(); !errors.Is(err, ErrUnstable) {
		t.Errorf("response err = %v, want ErrUnstable", err)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Config{}, 5, 10, 1); err == nil {
		t.Error("empty config should error")
	}
	cfg := testConfig(t)
	if _, err := Simulate(cfg, -1, 10, 1); err == nil {
		t.Error("negative n should error")
	}
	if _, err := Simulate(cfg, 5, 0, 1); err == nil {
		t.Error("zero rounds should error")
	}
}

// TestRefusesUnbuiltGeometry: a geometry disk.New did not build (the zero
// value, a struct literal) has no address map; New and Simulate refuse it
// as this package's ErrConfig.
func TestRefusesUnbuiltGeometry(t *testing.T) {
	v := disk.QuantumViking21()
	for _, g := range []*disk.Geometry{{}, {Name: "literal", RotationTime: v.RotationTime, Zones: v.Zones, Seek: v.Seek}} {
		cfg := testConfig(t)
		cfg.Disk = g
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("geometry %q: New err = %v, want ErrConfig", g.Name, err)
		}
		if _, err := Simulate(cfg, 5, 10, 1); !errors.Is(err, ErrConfig) {
			t.Errorf("geometry %q: Simulate err = %v, want ErrConfig", g.Name, err)
		}
	}
}

func TestSimulateMatchesModel(t *testing.T) {
	cfg := testConfig(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.ContinuousNMax(0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, n, 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The continuous class keeps its guarantee: glitch rate below the
	// (per-round!) one-percent target with margin.
	if res.ContinuousGlitchRate > 0.01 {
		t.Errorf("continuous glitch rate = %v at admitted N=%d", res.ContinuousGlitchRate, n)
	}
	// The continuous sweep respects its budget most rounds.
	if res.ContinuousOverrunRate > 0.02 {
		t.Errorf("budget overrun rate = %v", res.ContinuousOverrunRate)
	}
	// Discrete service is live and stable.
	if res.DiscreteServed < 4000*4 { // ~5/s nominal
		t.Errorf("discrete served = %d, expected near %d", res.DiscreteServed, 4000*5)
	}
	// Simulated response within a factor of the analytic estimate.
	est, err := m.DiscreteResponseEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscreteMeanResponse > 4*est || est > 6*res.DiscreteMeanResponse {
		t.Errorf("simulated response %v vs estimate %v", res.DiscreteMeanResponse, est)
	}
	if res.DiscreteP95Response < res.DiscreteMeanResponse {
		t.Errorf("p95 %v below mean %v", res.DiscreteP95Response, res.DiscreteMeanResponse)
	}
}

func TestSimulateNoDiscreteLoad(t *testing.T) {
	cfg := testConfig(t)
	cfg.DiscreteRate = 0
	res, err := Simulate(cfg, 10, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscreteServed != 0 || res.DiscreteMeanResponse != 0 {
		t.Errorf("no-load result = %+v", res)
	}
	if res.ContinuousGlitchRate > 0.001 {
		t.Errorf("glitch rate at N=10 = %v", res.ContinuousGlitchRate)
	}
}

func TestSimulateOverload(t *testing.T) {
	// Discrete arrivals far beyond the reserve: the queue backs up and
	// response times blow up relative to the stable case.
	cfg := testConfig(t)
	cfg.DiscreteRate = 100
	res, err := Simulate(cfg, 20, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := Simulate(testConfig(t), 20, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.DiscreteMeanResponse > 3*stable.DiscreteMeanResponse) {
		t.Errorf("overloaded response %v not much above stable %v",
			res.DiscreteMeanResponse, stable.DiscreteMeanResponse)
	}
	if res.DiscreteMaxQueue <= stable.DiscreteMaxQueue {
		t.Errorf("overloaded queue %d not above stable %d",
			res.DiscreteMaxQueue, stable.DiscreteMaxQueue)
	}
}
