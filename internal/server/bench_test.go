package server

import (
	"fmt"
	"runtime"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/model"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// paperLoadStep returns one round of Step at the paper's full admitted
// load — N_max streams on one Quantum Viking 2.1 disk, 1 s rounds, one
// object per stream — with the flight recorder off or on, warmed for
// warm rounds. Completed streams are replaced before the next round.
func paperLoadStep(tb testing.TB, traceOff bool, warm int) func() {
	tb.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        7,
		Trace:       trace.Config{Disabled: traceOff},
	})
	if err != nil {
		tb.Fatal(err)
	}
	capacity := s.Capacity()
	for i := 0; i < capacity; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 4096); err != nil {
			tb.Fatal(err)
		}
	}
	step := func() {
		for s.Active() < capacity {
			if _, _, err := s.Open(fmt.Sprintf("v%d", s.Active())); err != nil {
				tb.Fatal(err)
			}
		}
		s.Step()
	}
	for i := 0; i < warm; i++ {
		step()
	}
	return step
}

// An untraced round allocates nothing but RoundReport.Disks, which
// callers keep, and that once per reportBlock rounds: requests, effects
// and SCAN order are Step scratch. testing.AllocsPerRun rounds down to
// whole objects, so the mean is taken from the allocator's own count.
func TestStepAllocsUntraced(t *testing.T) {
	step := paperLoadStep(t, true, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if mean := float64(after.Mallocs-before.Mallocs) / rounds; mean >= 0.1 {
		t.Errorf("untraced Step allocates %v objects per round, want fewer than 0.1", mean)
	}
}

// TestReportRowsNeverShared: reports are the caller's to keep, so although
// their Disks rows are cut from a shared block, no row is handed out
// twice and no report can grow into the next one's rows.
func TestReportRowsNeverShared(t *testing.T) {
	s := paperServer(t, 4)
	if err := s.AddSyntheticObject("v", 4096); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("v"); err != nil {
		t.Fatal(err)
	}
	const kept = 3*reportBlock + 4 // across several block boundaries
	reps := make([]RoundReport, kept)
	for k := range reps {
		reps[k] = s.Step()
		if len(reps[k].Disks) != 4 || cap(reps[k].Disks) != 4 {
			t.Fatalf("round %d: Disks has len %d cap %d, want 4 and 4", k, len(reps[k].Disks), cap(reps[k].Disks))
		}
	}
	// Stamp every row of every report, then grow each report: any shared
	// or reachable row shows as a stamp that is not its own.
	for k := range reps {
		for d := range reps[k].Disks {
			reps[k].Disks[d].Requests = 1000*k + d
		}
	}
	for k := range reps {
		_ = append(reps[k].Disks, DiskRoundReport{Requests: -1})
	}
	for k := range reps {
		for d, dr := range reps[k].Disks {
			if dr.Requests != 1000*k+d {
				t.Fatalf("report %d disk %d reads %d: its row is reachable from another report", k, d, dr.Requests)
			}
		}
	}
}

// BenchmarkStep's trace-on/trace-off pair is the flight recorder's cost
// on the round path. The traced variant warms one full lap of the span
// ring (plus a little) so buffers shuttle between the scratch span and
// ring slots without allocating.
func BenchmarkStep(b *testing.B) {
	for _, v := range []struct {
		name     string
		traceOff bool
	}{{"trace-off", true}, {"trace-on", false}} {
		b.Run(v.name, func(b *testing.B) {
			step := paperLoadStep(b, v.traceOff, trace.DefaultSpans+8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
