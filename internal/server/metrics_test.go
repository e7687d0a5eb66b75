package server

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/model"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// TestBoundTightnessWithinBounds is the bound-tightness integration test:
// run each disk profile at its full admitted load and check that the
// measured tail P̂[T_N ≥ t] and glitch rate never exceed the analytic
// b_late / b_glitch they were admitted under (the paper's guarantee).
func TestBoundTightnessWithinBounds(t *testing.T) {
	profiles := []struct {
		name string
		geom *disk.Geometry
	}{
		{"QuantumViking21", disk.QuantumViking21()},
		{"Synthetic2000", disk.Synthetic2000()},
	}
	for _, p := range profiles {
		p := p
		t.Run(p.name, func(t *testing.T) {
			s, err := New(Config{
				Disk:        p.geom,
				NumDisks:    2,
				RoundLength: 1,
				Sizes:       workload.PaperSizes(),
				Guarantee:   model.Guarantee{Threshold: 0.01},
				Seed:        7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.PerDiskLimit() < 1 {
				t.Fatalf("profile admits nothing: N_max = %d", s.PerDiskLimit())
			}
			// Fill the server to capacity so every round runs at the
			// admitted load the bounds were computed for. Each stream
			// plays its own object: the Chernoff machinery assumes
			// independent fragment sizes, and streams sharing one object
			// in lockstep would correlate every transfer in a sweep.
			for i := 0; i < s.Capacity(); i++ {
				name := fmt.Sprintf("clip-%03d", i)
				if err := s.AddSyntheticObject(name, 10_000); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Open(name); err != nil {
					t.Fatalf("open %d/%d: %v", i, s.Capacity(), err)
				}
			}

			const rounds = 300
			sum := s.Run(rounds)

			rep, err := s.BoundTightness()
			if err != nil {
				t.Fatal(err)
			}
			if rep.PerDiskLimit != s.PerDiskLimit() {
				t.Errorf("report limit %d != server limit %d", rep.PerDiskLimit, s.PerDiskLimit())
			}
			if len(rep.Disks) != s.NumDisks() {
				t.Fatalf("report covers %d disks, want %d", len(rep.Disks), s.NumDisks())
			}
			for _, d := range rep.Disks {
				// Staggered stream starts can leave a disk idle for the
				// first round or two.
				if d.Sweeps < rounds-2 || d.Sweeps > rounds {
					t.Errorf("disk %d: %d sweeps, want ~%d", d.Disk, d.Sweeps, rounds)
				}
				if d.PeakLoad != s.PerDiskLimit() {
					t.Errorf("disk %d: peak load %d, want N_max %d", d.Disk, d.PeakLoad, s.PerDiskLimit())
				}
				if d.BoundPLate <= 0 || d.BoundGlitch <= 0 {
					t.Errorf("disk %d: degenerate bounds %g / %g", d.Disk, d.BoundPLate, d.BoundGlitch)
				}
				// The guarantee itself: measurement must respect the bound.
				if d.EmpiricalPLate > d.BoundPLate {
					t.Errorf("disk %d: empirical P[T_N>t] %g exceeds b_late %g",
						d.Disk, d.EmpiricalPLate, d.BoundPLate)
				}
				if d.EmpiricalGlitchRate > d.BoundGlitch {
					t.Errorf("disk %d: glitch rate %g exceeds b_glitch %g",
						d.Disk, d.EmpiricalGlitchRate, d.BoundGlitch)
				}
			}
			if !rep.WithinBounds() {
				t.Error("WithinBounds() = false at admitted load")
			}

			// The per-disk histogram tail must agree with the aggregate
			// glitch accounting in the run summary.
			var glitches int64
			for _, d := range rep.Disks {
				glitches += d.Glitches
			}
			if glitches != int64(sum.Glitches) {
				t.Errorf("telemetry glitches %d != run summary %d", glitches, sum.Glitches)
			}
		})
	}
}

// TestTelemetryCountersMatchReports cross-checks the metric surface
// against the per-round reports the Step API already returns. Short clips
// complete several to a round, beside one Close, so the retirement
// counters are checked against both ways a stream retires.
func TestTelemetryCountersMatchReports(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 50); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("short", 3); err != nil {
		t.Fatal(err)
	}
	var first StreamID
	for i := 0; i < 16; i++ {
		name := "v"
		if i >= 10 {
			name = "short"
		}
		id, _, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
	}
	var fragments, glitches, completed int
	const rounds = 40
	for r := 0; r < rounds; r++ {
		if r == 10 {
			if err := s.Close(first); err != nil {
				t.Fatal(err)
			}
		}
		rep := s.Step()
		glitches += rep.Glitches
		completed += len(rep.Completed)
		for _, d := range rep.Disks {
			fragments += d.Requests
		}
	}
	if completed != 6 {
		t.Fatalf("%d streams completed, want the 6 short clips", completed)
	}
	snap := s.Telemetry().Registry().Snapshot()
	checks := []struct {
		name string
		want int64
	}{
		{"mzqos_server_rounds_total", rounds},
		{"mzqos_server_fragments_total", int64(fragments)},
		{"mzqos_server_glitches_total", int64(glitches)},
		{"mzqos_server_streams_admitted_total", 16},
		{"mzqos_server_streams_completed_total", int64(completed)},
		{"mzqos_server_streams_retired_total", int64(completed) + 1},
	}
	for _, c := range checks {
		if got, ok := counterValue(snap, c.name); !ok || got != c.want {
			t.Errorf("%s = %d (ok=%v), want %d", c.name, got, ok, c.want)
		}
	}
	if v, ok := gaugeValue(snap, "mzqos_server_nmax"); !ok || int(v) != s.PerDiskLimit() {
		t.Errorf("nmax gauge = %v (ok=%v), want %d", v, ok, s.PerDiskLimit())
	}
	if v, ok := gaugeValue(snap, "mzqos_server_streams_active"); !ok || int(v) != s.Active() {
		t.Errorf("active gauge = %v (ok=%v), want %d", v, ok, s.Active())
	}
}

// TestSweepPhaseBreakdown checks that the per-phase decomposition of the
// SCAN sweep (seek + rotation + transfer) accounts for the whole sweep.
func TestSweepPhaseBreakdown(t *testing.T) {
	s := paperServer(t, 1)
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 20; r++ {
		rep := s.Step()
		for _, d := range rep.Disks {
			if d.Requests == 0 {
				continue
			}
			phases := d.Seek + d.Rotation + d.Transfer
			if math.Abs(phases-d.Busy) > 1e-9*math.Max(1, d.Busy) {
				t.Fatalf("phases %g != busy %g", phases, d.Busy)
			}
			if d.Seek <= 0 || d.Rotation < 0 || d.Transfer <= 0 {
				t.Fatalf("degenerate phase split: %+v", d)
			}
		}
	}
	// The same decomposition, accumulated: the phase-seconds series sum to
	// the round-time histogram's sum, over 20 sweeps of 8 requests.
	snap := s.Telemetry().Registry().Snapshot()
	disk0 := telemetry.L("disk", "0")
	hv, ok := snap.Histogram("mzqos_server_round_time_seconds", disk0)
	if !ok || hv.Count != 20 {
		t.Fatalf("round-time histogram holds %d sweeps (ok=%v), want 20", hv.Count, ok)
	}
	if got, _ := counterValue(snap, "mzqos_server_disk_fragments_total", disk0); got != 20*8 {
		t.Fatalf("disk fragments = %d, want %d", got, 20*8)
	}
	var phases float64
	for _, phase := range []string{"seek", "rotation", "transfer"} {
		v, ok := snap.FloatCounter("mzqos_server_phase_seconds_total", disk0, telemetry.L("phase", phase))
		if !ok || v <= 0 {
			t.Fatalf("phase %s = %g (ok=%v), want > 0", phase, v, ok)
		}
		phases += v
	}
	if math.Abs(phases-hv.Sum) > 1e-6 {
		t.Fatalf("phase seconds %g don't sum to the histogram's %g", phases, hv.Sum)
	}
}

// TestRetiredStreamStats checks that closed streams stay queryable through
// the bounded retired-history ring and that the oldest entries are evicted
// once it overflows.
func TestRetiredStreamStats(t *testing.T) {
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}

	const retired = engine.RetainedStreams + 3
	var ids []StreamID
	for i := 0; i < retired; i++ {
		id, _, err := s.Open("v")
		if err != nil {
			t.Fatal(err)
		}
		s.Step() // serve at least one fragment so stats are non-trivial
		if err := s.Close(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Newest RetainedStreams still queryable, oldest 3 evicted: nothing
	// else was ever retired, so exactly RetainedStreams are kept.
	for _, id := range ids[3:] {
		st, err := s.Stats(id)
		if err != nil {
			t.Fatalf("stats for retained stream %d: %v", id, err)
		}
		if st.Served < 1 {
			t.Errorf("stream %d: served %d fragments, want >= 1", id, st.Served)
		}
	}
	for _, id := range ids[:3] {
		if _, err := s.Stats(id); !errors.Is(err, ErrUnknownStream) {
			t.Errorf("evicted stream %d: err = %v, want ErrUnknownStream", id, err)
		}
	}

	snap := s.Telemetry().Registry().Snapshot()
	if got, _ := counterValue(snap, "mzqos_server_streams_retired_total"); got != retired {
		t.Errorf("retired counter = %d, want %d", got, retired)
	}
}

// TestRetiredStatsAllocsZero: asking for a retired stream's stats — the
// newest, the oldest still retained, or one already dropped — allocates
// nothing.
func TestRetiredStatsAllocsZero(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	var ids []StreamID
	for i := 0; i < engine.RetainedStreams+1; i++ {
		id, _, err := s.Open("v")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, c := range []struct {
		name string
		id   StreamID
		err  error
	}{
		{"newest", ids[len(ids)-1], nil},
		{"oldest retained", ids[1], nil},
		{"dropped", ids[0], ErrUnknownStream},
	} {
		if _, err := s.Stats(c.id); !errors.Is(err, c.err) {
			t.Fatalf("%s: Stats(%d) error = %v, want %v", c.name, c.id, err, c.err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = s.Stats(c.id) }); allocs != 0 {
			t.Errorf("%s: Stats(%d) allocates %v objects, want 0", c.name, c.id, allocs)
		}
	}
}

// TestRecalibrateUpdatesPublishedLimits checks that a recalibration swaps
// the gauges the tightness report and exposition endpoint read.
func TestRecalibrateUpdatesPublishedLimits(t *testing.T) {
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Catalog fragments twice as heavy as declared (with spread, so the
	// observed moments are non-degenerate): recalibration against the
	// observed workload must shrink the admission limit.
	heavy := make([]float64, 1000)
	for i := range heavy {
		heavy[i] = 400 * workload.KB
		if i%2 == 0 {
			heavy[i] -= 100 * workload.KB
		} else {
			heavy[i] += 100 * workload.KB
		}
	}
	if err := s.AddObject("v", heavy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 60; r++ {
		s.Step()
	}
	old, now, err := s.Recalibrate(100)
	if err != nil {
		t.Fatal(err)
	}
	if now >= old {
		t.Fatalf("heavier workload should shrink the limit: %d -> %d", old, now)
	}
	snap := s.Telemetry().Registry().Snapshot()
	if v, _ := gaugeValue(snap, "mzqos_server_nmax"); int(v) != now {
		t.Errorf("nmax gauge %v not updated to %d", v, now)
	}
	rep, err := s.BoundTightness()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerDiskLimit != now {
		t.Errorf("report limit %d, want recalibrated %d", rep.PerDiskLimit, now)
	}
}

// TestBoundTightnessConcurrentWithRounds exercises the report while the
// round loop mutates state, for the race detector.
func TestBoundTightnessConcurrentWithRounds(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := s.BoundTightness(); err != nil {
				t.Errorf("BoundTightness: %v", err)
				return
			}
			s.Telemetry().Registry().Snapshot()
		}
	}()
	for r := 0; r < 50; r++ {
		s.Step()
	}
	<-done
}

// TestSharedRegistryShardsDoNotCollide covers the multi-engine process
// shape: two servers sharing one registry, each with its own instance
// label, must own disjoint series — without the labels a second shard
// would silently write to the first shard's counters.
func TestSharedRegistryShardsDoNotCollide(t *testing.T) {
	reg := telemetry.NewRegistry()
	mk := func(shard string, seed uint64) *Server {
		s, err := New(Config{
			Disk:           disk.QuantumViking21(),
			NumDisks:       2,
			RoundLength:    1,
			Sizes:          workload.PaperSizes(),
			Guarantee:      model.Guarantee{Threshold: 0.01},
			Seed:           seed,
			Registry:       reg,
			InstanceLabels: []telemetry.Label{telemetry.L("shard", shard)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := mk("0", 1), mk("1", 2)
	if s0.Telemetry().Registry() != reg || s1.Telemetry().Registry() != reg {
		t.Fatal("servers should adopt the shared registry")
	}

	s0.Run(3)
	s1.Run(5)

	snap := reg.Snapshot()
	r0, ok0 := counterValue(snap, "mzqos_server_rounds_total", telemetry.L("shard", "0"))
	r1, ok1 := counterValue(snap, "mzqos_server_rounds_total", telemetry.L("shard", "1"))
	if !ok0 || !ok1 {
		t.Fatal("per-shard rounds series missing from shared registry")
	}
	if r0 != 3 || r1 != 5 {
		t.Fatalf("rounds = (%d, %d), want (3, 5): shards clobbered each other", r0, r1)
	}

	// The per-disk series carry the instance label too.
	if _, ok := counterValue(snap, "mzqos_server_late_rounds_total",
		telemetry.L("shard", "1"), telemetry.L("disk", "0")); !ok {
		t.Error("per-disk series missing the instance label")
	}

	// And the exposition stays one contiguous block per metric name.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	i0 := strings.Index(out, `mzqos_server_rounds_total{shard="0"} 3`)
	i1 := strings.Index(out, `mzqos_server_rounds_total{shard="1"} 5`)
	if i0 < 0 || i1 < 0 {
		t.Fatalf("exposition missing per-shard series:\n%s", out)
	}
	if header := strings.Count(out, "# TYPE mzqos_server_rounds_total "); header != 1 {
		t.Errorf("rounds header appears %d times, want 1", header)
	}
}

// counterValue reads the counter series name with exactly labels out of a
// snapshot.
func counterValue(s telemetry.Snapshot, name string, labels ...telemetry.Label) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && slices.Equal(c.Labels, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// gaugeValue reads the gauge series name with exactly labels out of a
// snapshot.
func gaugeValue(s telemetry.Snapshot, name string, labels ...telemetry.Label) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && slices.Equal(g.Labels, labels) {
			return g.Value, true
		}
	}
	return 0, false
}
