package server

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/journal"
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

// An untraced round allocates nothing but what callers keep of its report:
// RoundReport.Disks, cut once per reportBlock rounds, and Completed, once
// in a round where streams complete — which this server's 4096-fragment
// objects never do within the test. Requests, effects, SCAN order and the
// completed streams are Step scratch. testing.AllocsPerRun rounds down to
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

// churnRound returns one round of a churning server — clips of one to four
// fragments on four disks, journal and ledger on — that opens streams until
// the first rejection, steps, and reports how many it admitted. The
// warm-up laps the ledger's retired ring, after which every admission
// recycles a record the ring evicts, and every other ring a round writes.
//
// A span per disk a round: the warm-up laps the flight recorder's span
// ring once. The recorder hands each writer back a record buffer that
// holds the widest sweep recorded so far, and at this load the widest
// sweep comes in the first rounds, so the buffers in the ring stop being
// replaced within the lap.
func churnRound(tb testing.TB) func() int {
	s, _, _ := journaledServer(tb, 4, nil, DegradeConfig{})
	names := []string{"c1", "c2", "c3", "c4"}
	for n, name := range names {
		if err := s.AddSyntheticObject(name, n+1); err != nil {
			tb.Fatal(err)
		}
	}
	opened := 0
	round := func() int {
		from := opened
		for {
			_, _, err := s.Open(names[opened%len(names)])
			if errors.Is(err, ErrRejected) {
				break
			}
			if err != nil {
				tb.Fatal(err)
			}
			opened++
		}
		s.Step()
		return opened - from
	}
	for s.tel.retired.Value() <= journal.DefaultRetired ||
		s.Round() < trace.DefaultSpans/s.NumDisks() {
		round()
	}
	return round
}

// TestChurnAllocs holds a churning server (churnRound) to what a caller
// keeps of each round's report: its Completed slice, one allocation a
// round, and its Disks rows, one block per reportBlock rounds. Admitting,
// rejecting and retiring allocate nothing: the active set holds streams
// by value, ledger records are recycled, and Step retires its completions
// from scratch. The allocator's count also takes in the runtime's own
// background allocations, one or two in a run this long, hence the slack.
func TestChurnAllocs(t *testing.T) {
	round := churnRound(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 200
	admitted := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		admitted += round()
	}
	runtime.ReadMemStats(&after)
	if got, want := after.Mallocs-before.Mallocs, uint64(rounds+(rounds+reportBlock-1)/reportBlock+2); got > want {
		t.Errorf("%d churning rounds (%d streams admitted) allocate %d objects, want at most %d: one Completed slice a round and one block of report rows per %d rounds",
			rounds, admitted, got, want, reportBlock)
	}
}

// TestOpenRejectedAllocsZero: at twice the admissible load more than half
// of all opens are rejections, so turning a stream away on a full,
// journaled, ledgered server allocates nothing — the reject event is
// filled in place on the stack and copied once, into the journal's ring —
// while what the journal retains is what
// Open saw: one event per rejection, naming the object, the reason and the
// limit every class sat at.
func TestOpenRejectedAllocsZero(t *testing.T) {
	s, jnl, _ := journaledServer(t, 4, nil, DegradeConfig{})
	if err := s.AddSyntheticObject("v", 600); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	reject := func() {
		if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
			t.Fatalf("open on a full server: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(200, reject); allocs != 0 {
		t.Errorf("a rejected Open allocates %v objects, want 0", allocs)
	}
	rejs := jnl.Events(rejectEvents())
	if int64(len(rejs)) != s.tel.rejected.Value() {
		t.Fatalf("journal holds %d reject events for %d rejections", len(rejs), s.tel.rejected.Value())
	}
	full := make([]int, s.NumDisks())
	for c := range full {
		full[c] = s.PerDiskLimit()
	}
	if classes := s.AdmissionStatus().Classes; !slices.Equal(classes, full) {
		t.Fatalf("classes %v on a full server, want %v", classes, full)
	}
	for i, r := range rejs {
		if want := uint64(s.tel.admitted.Value()) + uint64(i) + 1; r.Seq != want {
			t.Fatalf("rejection %d has seq %d, want %d", i, r.Seq, want)
		}
		if r.Object != "v" || r.Detail != RejectClassesFull || r.Value != float64(s.PerDiskLimit()) {
			t.Fatalf("rejection %d = %+v, want classes_full of v at N_max %d", i, r, s.PerDiskLimit())
		}
	}
	if got, want := jnl.Stats().HeadSeq, uint64(s.tel.admitted.Value()+s.tel.rejected.Value()); got != want {
		t.Errorf("journal holds %d events, want one per admit and per reject: %d", got, want)
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
// ring (plus a little) so every slot already holds a record buffer to
// hand back.
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

// BenchmarkChurnStep is churn-1x4's round without benchmark/run.sh around
// it: one churnRound (open until rejected, then Step) per op, on the
// server TestChurnAllocs holds to its allocation count.
func BenchmarkChurnStep(b *testing.B) {
	round := churnRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
