package server

import (
	"fmt"
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

// An untraced round allocates RoundReport.Disks, which callers keep, and
// nothing else: requests, effects and SCAN order are Step scratch.
func TestStepAllocsUntraced(t *testing.T) {
	step := paperLoadStep(t, true, 8)
	if allocs := testing.AllocsPerRun(200, step); allocs > 1 {
		t.Errorf("untraced Step allocates %v per round, want at most 1", allocs)
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
