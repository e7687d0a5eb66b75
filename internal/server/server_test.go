package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/slo"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

func paperServer(t testing.TB, disks int) *Server {
	t.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := New(Config{Disk: disk.QuantumViking21(), NumDisks: 0, RoundLength: 1, Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 0.01}}); err == nil {
		t.Error("zero disks should error")
	}
	if _, err := New(Config{Disk: disk.QuantumViking21(), NumDisks: 1, RoundLength: 1, Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 2}}); err == nil {
		t.Error("invalid guarantee should error")
	}
	// The ledger keeps one set of maps per shard index.
	if _, err := New(Config{Disk: disk.QuantumViking21(), NumDisks: 1, RoundLength: 1, Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 0.01}, Shard: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative shard: err = %v, want ErrConfig", err)
	}
}

// TestNewRejectsUnboundedRoundLength: a round length the admission model
// cannot bound its search for is a configuration error of the server's,
// whichever layer spots it.
func TestNewRejectsUnboundedRoundLength(t *testing.T) {
	for _, rl := range []float64{math.Inf(1), 1e300} {
		_, err := New(Config{Disk: disk.QuantumViking21(), NumDisks: 1, RoundLength: rl, Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 0.01}})
		if !errors.Is(err, ErrConfig) {
			t.Errorf("round length %g: New returned %v, want ErrConfig", rl, err)
		}
	}
}

// TestNewRefusesHostileConfigs: a config New cannot serve is an ErrConfig,
// never a panic. A geometry disk.New did not build — the zero value or a
// struct literal — has no address map.
func TestNewRefusesHostileConfigs(t *testing.T) {
	v := disk.QuantumViking21()
	literal := &disk.Geometry{Name: "literal", RotationTime: v.RotationTime, Zones: v.Zones, Seek: v.Seek}
	good := Config{Disk: v, NumDisks: 2, RoundLength: 1, Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 0.01}}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero-value Disk", func(c *Config) { c.Disk = &disk.Geometry{} }},
		{"struct-literal Disk", func(c *Config) { c.Disk = literal }},
		{"nil Sizes", func(c *Config) { c.Sizes = workload.SizeModel{} }},
		{"zero NumDisks", func(c *Config) { c.NumDisks = 0 }},
		{"negative NumDisks", func(c *Config) { c.NumDisks = -1 }},
		{"NaN round length", func(c *Config) { c.RoundLength = math.NaN() }},
		{"infinite round length", func(c *Config) { c.RoundLength = math.Inf(1) }},
		{"more disks than the journal labels", func(c *Config) { c.NumDisks = journal.MaxDisks + 1 }},
		{"a shard past int32", func(c *Config) { c.Shard = math.MaxInt32 + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.edit(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("New returned %v, want ErrConfig", err)
			}
		})
	}
	if _, err := New(good); err != nil {
		t.Fatalf("the unedited config: %v", err)
	}
}

// TestNewRejectsUnaddressableDisk: the catalog keeps a fragment's cylinder
// in 16 bits and its zone in 8, so a disk with more of either than that is
// turned away at construction, never truncated at layout or in a trace.
// New checks the catalog's limits alone, so every disk it accepts must
// also be one the flight recorder addresses.
func TestNewRejectsUnaddressableDisk(t *testing.T) {
	v := disk.QuantumViking21()
	for _, tc := range []struct {
		cylinders, zones int
		rejected         bool
	}{
		{engine.MaxCylinders, 1, false},
		{engine.MaxCylinders + 1, 1, true},
		{engine.MaxZones, engine.MaxZones, false},
		{engine.MaxZones + 1, engine.MaxZones + 1, true},
	} {
		zones := make([]disk.Zone, tc.zones)
		for z := range zones {
			zones[z] = disk.Zone{Tracks: tc.cylinders / tc.zones, TrackCapacity: 1e5}
		}
		wide, err := disk.New("wide", v.RotationTime, zones, v.Seek)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(Config{
			Disk: wide, NumDisks: 2, RoundLength: 1, Sizes: workload.PaperSizes(),
			Guarantee: model.Guarantee{Threshold: 0.01},
		})
		if tc.rejected && !errors.Is(err, ErrConfig) || !tc.rejected && err != nil {
			t.Errorf("%d cylinders in %d zones: New returned %v, want ErrConfig: %v", tc.cylinders, tc.zones, err, tc.rejected)
		}
		if !tc.rejected && !trace.Addressable(wide) {
			t.Errorf("%d cylinders in %d zones: accepted, but the flight recorder cannot address it", tc.cylinders, tc.zones)
		}
	}
}

// TestNewRejectsRetriesPastTheCap: a fault plan handed to New is held to
// fault.MaxRetries like one ParsePlan reads.
func TestNewRejectsRetriesPastTheCap(t *testing.T) {
	for _, retries := range []int{fault.MaxRetries, fault.MaxRetries + 1} {
		_, err := New(Config{
			Disk: disk.QuantumViking21(), NumDisks: 2, RoundLength: 1, Sizes: workload.PaperSizes(),
			Guarantee: model.Guarantee{Threshold: 0.01},
			Faults: &fault.Plan{Faults: []fault.Fault{
				{Kind: fault.ReadError, Disk: fault.AllDisks, Prob: 1, Retries: retries},
			}},
		})
		if retries > fault.MaxRetries && !errors.Is(err, fault.ErrPlan) || retries <= fault.MaxRetries && err != nil {
			t.Errorf("retries=%d: New returned %v", retries, err)
		}
	}
}

func TestPerDiskLimitMatchesModel(t *testing.T) {
	s := paperServer(t, 4)
	if s.PerDiskLimit() != 26 {
		t.Errorf("PerDiskLimit = %d, want 26 (paper's N_max at δ=1%%)", s.PerDiskLimit())
	}
	if s.Capacity() != 4*26 {
		t.Errorf("Capacity = %d, want %d", s.Capacity(), 4*26)
	}
}

func TestOverloadedGuaranteeAdmitsNothing(t *testing.T) {
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 0.001, // nothing fits in a 1 ms round
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.PerDiskLimit() != 0 {
		t.Errorf("PerDiskLimit = %d, want 0", s.PerDiskLimit())
	}
	if err := s.AddSyntheticObject("v", 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
		t.Errorf("Open err = %v, want ErrRejected", err)
	}
}

func TestCatalog(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddObject("a", []float64{1e5, 2e5}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject("a", []float64{1e5}); !errors.Is(err, ErrDuplicateObject) {
		t.Errorf("duplicate err = %v", err)
	}
	if err := s.AddObject("", []float64{1e5}); !errors.Is(err, ErrConfig) {
		t.Errorf("empty name err = %v", err)
	}
	if err := s.AddObject("b", nil); !errors.Is(err, ErrConfig) {
		t.Errorf("no fragments err = %v", err)
	}
	if err := s.AddObject("c", []float64{0}); !errors.Is(err, ErrConfig) {
		t.Errorf("zero fragment err = %v", err)
	}
	if err := s.AddSyntheticObject("d", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("e", 0); !errors.Is(err, ErrConfig) {
		t.Errorf("zero rounds err = %v", err)
	}
	if len(s.catalog) != 2 || s.catalog["a"] == nil || s.catalog["d"] == nil {
		t.Errorf("catalog = %v, want a and d", s.catalog)
	}
}

// TestRejectedAddObjectDrawsNothing: an object turned away for a bad
// fragment size leaves no trace in the placement stream — the next object
// lands exactly where it would on a server that never saw the call.
func TestRejectedAddObjectDrawsNothing(t *testing.T) {
	clean, probed := paperServer(t, 2), paperServer(t, 2)
	if err := probed.AddObject("bad", []float64{1e5, 2e5, -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative fragment err = %v", err)
	}
	for _, s := range []*Server{clean, probed} {
		if err := s.AddObject("a", []float64{1e5, 2e5, 3e5}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := probed.catalog["a"], clean.catalog["a"]; !reflect.DeepEqual(got, want) {
		t.Errorf("after a rejected AddObject the next object is placed at %+v, on a server that never saw the call at %+v",
			got, want)
	}
}

func TestOpenUnknownObject(t *testing.T) {
	s := paperServer(t, 1)
	if _, _, err := s.Open("nope"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("err = %v", err)
	}
}

func TestAdmissionCapEnforced(t *testing.T) {
	s := paperServer(t, 1)
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	limit := s.PerDiskLimit()
	for i := 0; i < limit; i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
		t.Errorf("open beyond limit err = %v, want ErrRejected", err)
	}
	if s.Active() != limit {
		t.Errorf("Active = %d, want %d", s.Active(), limit)
	}
	// Closing one frees a slot.
	var id StreamID = 1
	if err := s.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("v"); err != nil {
		t.Errorf("open after close err = %v", err)
	}
	if err := s.Close(9999); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("close unknown err = %v", err)
	}
}

func TestStartupDelayBalancesClasses(t *testing.T) {
	s := paperServer(t, 4)
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	// All streams open on the same object in round 0; the delay mechanism
	// must spread them across offset classes, so up to 4·N_max fit.
	total := s.Capacity()
	delays := make(map[int]int)
	for i := 0; i < total; i++ {
		_, delay, err := s.Open("v")
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if delay < 0 || delay >= 4 {
			t.Fatalf("delay %d outside [0,4)", delay)
		}
		delays[delay]++
	}
	if len(delays) != 4 {
		t.Errorf("delays used = %v, want all 4 classes", delays)
	}
	if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
		t.Errorf("open beyond capacity err = %v", err)
	}
}

func TestRoundRobinLoadIsConstantPerDisk(t *testing.T) {
	s := paperServer(t, 3)
	if err := s.AddSyntheticObject("v", 30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	// After the startup transient (≤ D rounds), every disk serves the same
	// number of requests each round: class sizes are constant.
	for r := 0; r < 3; r++ {
		s.Step()
	}
	rep := s.Step()
	for d, dr := range rep.Disks {
		if dr.Requests != 3 {
			t.Errorf("round %d disk %d served %d, want 3", rep.Round, d, dr.Requests)
		}
	}
}

func TestStreamLifecycleAndStats(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddObject("short", []float64{1e5, 1e5, 1e5}); err != nil {
		t.Fatal(err)
	}
	id, delay, err := s.Open("short")
	if err != nil {
		t.Fatal(err)
	}
	totalRounds := delay + 3
	var completed []StreamID
	for i := 0; i < totalRounds; i++ {
		rep := s.Step()
		completed = append(completed, rep.Completed...)
	}
	if len(completed) != 1 || completed[0] != id {
		t.Fatalf("completed = %v, want [%d]", completed, id)
	}
	if s.Active() != 0 {
		t.Errorf("Active = %d after completion", s.Active())
	}
	st, err := s.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Served != 3 || st.Object != "short" {
		t.Errorf("stats = %+v", st)
	}
	if _, err := s.Stats(777); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("stats unknown err = %v", err)
	}
}

func TestRunSummaryAccounting(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 50); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	sum := s.Run(30)
	if sum.Rounds != 30 {
		t.Errorf("Rounds = %d", sum.Rounds)
	}
	if sum.Requests == 0 {
		t.Error("no requests served")
	}
	if sum.PeakDiskLoad > s.PerDiskLimit() {
		t.Errorf("peak disk load %d exceeds N_max %d", sum.PeakDiskLoad, s.PerDiskLimit())
	}
	u := sum.Utilization()
	if u <= 0 || u >= 1 {
		t.Errorf("utilization = %v", u)
	}
	if gr := sum.GlitchRate(); gr < 0 || gr > 1 {
		t.Errorf("glitch rate = %v", gr)
	}
}

func TestGlitchRateHonoursGuarantee(t *testing.T) {
	// Run a full server at capacity with time-wise unrelated streams (one
	// per object, the paper's §2.1 assumption): the observed per-request
	// glitch rate must stay below the admission model's per-stream bound
	// (the model is conservative, Figure 1).
	s := paperServer(t, 2)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 400); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	sum := s.Run(200)
	bound, err := s.Model().GlitchBound(s.PerDiskLimit())
	if err != nil {
		t.Fatal(err)
	}
	if sum.GlitchRate() > bound {
		t.Errorf("observed glitch rate %v above analytic bound %v", sum.GlitchRate(), bound)
	}
}

func TestLockstepStreamsDegradeService(t *testing.T) {
	// Converse of the guarantee test: N_max identical streams opened in
	// the same round on the same object read the same fragment every
	// round, which breaks the model's independence assumption (§2.1's
	// "time-wise unrelated" streams) and inflates the glitch rate. The
	// server permits it — the guarantee just does not cover it.
	s := paperServer(t, 1)
	if err := s.AddSyntheticObject("v", 400); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.PerDiskLimit(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	sum := s.Run(200)
	bound, err := s.Model().GlitchBound(s.PerDiskLimit())
	if err != nil {
		t.Fatal(err)
	}
	// At this seed the rate is about 126 times the bound.
	if sum.GlitchRate() <= 10*bound {
		t.Errorf("lockstep glitch rate %v not above ten times the bound %v", sum.GlitchRate(), bound)
	}
	// The audit sees it: both targets reject their budgets in both windows.
	for _, ts := range s.SLOStatus().Targets {
		if ts.State != slo.Firing {
			t.Errorf("%s alert %v after %d lockstep rounds, want firing", ts.Target, ts.State, sum.Rounds)
		}
	}
}

func TestEmptyRun(t *testing.T) {
	s := paperServer(t, 1)
	sum := s.Run(5)
	if sum.Requests != 0 || sum.Glitches != 0 || sum.Utilization() != 0 || sum.GlitchRate() != 0 {
		t.Errorf("idle run summary = %+v", sum)
	}
	var zero RunSummary
	if zero.Utilization() != 0 || zero.GlitchRate() != 0 {
		t.Error("zero summary ratios should be 0")
	}
}

func TestManyObjectsStripeBases(t *testing.T) {
	s := paperServer(t, 4)
	for i := 0; i < 8; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	// Bases rotate, so opening one stream per object with no delay spreads
	// load across disks.
	for i := 0; i < 8; i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Step()
	for d, dr := range rep.Disks {
		if dr.Requests != 2 {
			t.Errorf("disk %d served %d, want 2", d, dr.Requests)
		}
	}
}

func TestVBRTraceObjectEndToEnd(t *testing.T) {
	// Feed a synthetic MPEG trace through fragmentation into the server.
	s := paperServer(t, 2)
	cfg := workload.DefaultTraceConfig()
	rng := workloadRand()
	frames, err := workload.GenerateTrace(cfg, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := workload.Fragment(frames, cfg.FrameRate, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject("movie", frags); err != nil {
		t.Fatal(err)
	}
	id, delay, err := s.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	s.Run(delay + len(frags))
	st, err := s.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Served != len(frags) {
		t.Errorf("stats = %+v, want done with %d served", st, len(frags))
	}
	if math.IsNaN(float64(st.Glitches)) || st.Glitches > len(frags) {
		t.Errorf("glitches = %d", st.Glitches)
	}
}

func workloadRand() *rand.Rand { return dist.NewRand(2024, 7) }
