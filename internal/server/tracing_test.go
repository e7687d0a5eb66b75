package server

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/sweep"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// tracedFaultServer is faultServer with a recorder big enough to retain
// every sweep of the test horizon.
func tracedFaultServer(t testing.TB, disks int, plan *fault.Plan, deg DegradeConfig) *Server {
	t.Helper()
	s := faultServer(t, disks, plan, deg)
	// faultServer builds with the default Trace config; the default ring
	// (1024 spans) already holds far more than the ~110 rounds × 2 disks
	// these tests run, so nothing to resize.
	if !s.Trace().Enabled() {
		t.Fatal("tracing should be enabled by default")
	}
	return s
}

// TestStepSpansDecomposeRounds pins the tentpole invariant: every sweep
// span's phase totals reconcile with its request events and with the
// round report — the realized T_N = SEEK(N) + Σ T_rot,i + Σ T_trans,i of
// eq. 3.1.1, request by request.
func TestStepSpansDecomposeRounds(t *testing.T) {
	s := tracedFaultServer(t, 2, determinismPlan(), DegradeConfig{})
	for r := 0; r < 110; r++ {
		s.Step()
	}
	spans := s.Trace().Live()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	const tol = 1e-9
	for _, sp := range spans {
		if sp.Down {
			if sp.Busy != 0 || sp.Observed != sweep.DownRoundLengths*1.0 {
				t.Fatalf("down span round %d: busy %v observed %v", sp.Round, sp.Busy, sp.Observed)
			}
			for _, e := range sp.Requests {
				if !e.Lost || e.End() != 0 {
					t.Fatalf("down span round %d has a served request: %+v", sp.Round, e)
				}
			}
			continue
		}
		if math.Abs(sp.Seek+sp.Rotation+sp.Transfer-sp.Busy) > tol {
			t.Errorf("round %d disk %d: phases %v+%v+%v != busy %v",
				sp.Round, sp.Disk, sp.Seek, sp.Rotation, sp.Transfer, sp.Busy)
		}
		if sp.Observed != sp.Busy {
			t.Errorf("round %d disk %d: observed %v != busy %v", sp.Round, sp.Disk, sp.Observed, sp.Busy)
		}
		var seek, rot, trans float64
		late, lost, retries := 0, 0, 0
		prevEnd := 0.0
		for i, e := range sp.Requests {
			seek += e.Seek
			rot += e.Rotation
			trans += e.Transfer
			retries += e.Retries
			if e.Late {
				late++
			}
			if e.Lost {
				lost++
			}
			if math.Abs(e.Start-prevEnd) > tol {
				t.Errorf("round %d disk %d req %d: start %v != previous end %v",
					sp.Round, sp.Disk, i, e.Start, prevEnd)
			}
			prevEnd = e.End()
		}
		if math.Abs(prevEnd-sp.Busy) > tol {
			t.Errorf("round %d disk %d: last request ends at %v, busy %v", sp.Round, sp.Disk, prevEnd, sp.Busy)
		}
		if math.Abs(seek-sp.Seek) > tol || math.Abs(rot-sp.Rotation) > tol || math.Abs(trans-sp.Transfer) > tol {
			t.Errorf("round %d disk %d: request phase sums diverge from span totals", sp.Round, sp.Disk)
		}
		if late != sp.Late || lost != sp.Lost || retries != sp.Retries {
			t.Errorf("round %d disk %d: event counts (%d,%d,%d) != span counts (%d,%d,%d)",
				sp.Round, sp.Disk, late, lost, retries, sp.Late, sp.Lost, sp.Retries)
		}
	}
}

// TestChromeExportReconcilesWithHistogram is the acceptance criterion: the
// Chrome trace export's per-round sweep durations must sum to exactly what
// the round-time histograms observed — including down rounds, whose spans
// carry the 16·t sentinel the histogram recorded rather than the zero
// service time. Tracing and telemetry are two views of one truth.
func TestChromeExportReconcilesWithHistogram(t *testing.T) {
	s := tracedFaultServer(t, 2, determinismPlan(), DegradeConfig{})
	for r := 0; r < 110; r++ {
		s.Step()
	}
	spans := s.Trace().Live()
	cf := trace.ChromeTrace(spans, s.Trace().RoundLength())

	var chromeSum float64 // µs over sweep events
	sweeps := 0
	for _, ev := range cf.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "sweep" {
			chromeSum += ev.Dur
			sweeps++
		}
	}
	if sweeps != len(spans) {
		t.Fatalf("chrome export has %d sweep events for %d spans", sweeps, len(spans))
	}

	var histSum float64
	var histCount int64
	for d := range s.tel.disks {
		hv := s.tel.disks[d].roundTime.SnapshotValues()
		histSum += hv.Sum
		histCount += hv.Count
	}
	if int(histCount) != len(spans) {
		t.Fatalf("histograms observed %d sweeps, recorder holds %d spans", histCount, len(spans))
	}
	if rel := math.Abs(chromeSum/1e6-histSum) / histSum; rel > 1e-9 {
		t.Errorf("chrome sweep durations sum %.9f s, histograms %.9f s (rel err %.2e)",
			chromeSum/1e6, histSum, rel)
	}
}

// TestTraceDeterminism is satellite 4: two servers built from the
// identical Config (seed and fault plan included) must emit byte-identical
// trace event streams.
func TestTraceDeterminism(t *testing.T) {
	run := func() []byte {
		s := tracedFaultServer(t, 2, determinismPlan(), DegradeConfig{Enabled: true})
		for r := 0; r < 110; r++ {
			s.Step()
		}
		live, err := json.Marshal(s.Trace().Live())
		if err != nil {
			t.Fatal(err)
		}
		chrome, err := json.Marshal(trace.ChromeTrace(s.Trace().Live(), 1))
		if err != nil {
			t.Fatal(err)
		}
		return append(live, chrome...)
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Error("two identically-seeded runs produced different trace streams")
	}
}

// TestFreezeTriggers verifies the flight-recorder latch: the first
// interesting event (here the first glitch or down round of the fault
// horizon) freezes a snapshot whose history survives later triggers, and
// Clear re-arms the latch.
func TestFreezeTriggers(t *testing.T) {
	s := tracedFaultServer(t, 2, &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: 1, From: 10, Until: 12},
	}}, DegradeConfig{})
	for r := 0; r < 20; r++ {
		s.Step()
	}
	snap, ok := s.Trace().Frozen()
	if !ok {
		t.Fatal("no snapshot latched across a disk failure")
	}
	if snap.Reason != "down_round" && snap.Reason != "glitch" {
		t.Errorf("freeze reason = %q", snap.Reason)
	}
	if snap.Round != 10 {
		t.Errorf("freeze round = %d, want 10 (first failed round)", snap.Round)
	}
	// The snapshot must include history from before the trigger.
	if len(snap.Spans) == 0 || snap.Spans[0].Round >= 10 {
		t.Errorf("snapshot lacks pre-trigger history: first span round %d", snap.Spans[0].Round)
	}
	st := s.Trace().Stats()
	if !st.Frozen || st.Triggers < 1 {
		t.Errorf("stats = %+v", st)
	}
	s.Trace().Clear()
	if _, ok := s.Trace().Frozen(); ok {
		t.Error("Clear did not release the latch")
	}
}

// TestDegradeTransitionFreezes verifies that entering degraded mode
// freezes the flight recorder even without a glitch having fired first
// (the latch keeps whichever trigger came first).
func TestDegradeTransitionFreezes(t *testing.T) {
	s := tracedFaultServer(t, 2, &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: fault.AllDisks, From: 5, Until: 50, Factor: 3},
	}}, DegradeConfig{Enabled: true, After: 2})
	for r := 0; r < 30 && !s.Degraded(); r++ {
		s.Step()
	}
	if !s.Degraded() {
		t.Fatal("server never degraded under a 3x latency fault")
	}
	if _, ok := s.Trace().Frozen(); !ok {
		t.Error("no snapshot latched across the degrade transition")
	}
	if s.Trace().Stats().Triggers < 1 {
		t.Error("no triggers counted")
	}
}

// TestConcurrentStepAndTraceReaders is satellite 3: a stepping round loop
// racing /trace-style snapshot readers must always yield consistent,
// gap-free round sequences. Run under -race this also proves the memory
// discipline of the recorder and the admission-status surface.
func TestConcurrentStepAndTraceReaders(t *testing.T) {
	s := tracedFaultServer(t, 2, determinismPlan(), DegradeConfig{Enabled: true})
	const rounds = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spans := s.Trace().Live()
				for i := 1; i < len(spans); i++ {
					if spans[i].Seq != spans[i-1].Seq+1 {
						t.Errorf("gap in live spans: seq %d follows %d", spans[i].Seq, spans[i-1].Seq)
						return
					}
				}
				if snap, ok := s.Trace().Frozen(); ok {
					for i := 1; i < len(snap.Spans); i++ {
						if snap.Spans[i].Seq != snap.Spans[i-1].Seq+1 {
							t.Errorf("gap in frozen spans: seq %d follows %d",
								snap.Spans[i].Seq, snap.Spans[i-1].Seq)
							return
						}
					}
				}
				st := s.AdmissionStatus()
				if len(st.Explanations) != s.NumDisks() {
					t.Errorf("admission status has %d explanations for %d disks",
						len(st.Explanations), s.NumDisks())
					return
				}
				s.Trace().Stats()
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		s.Step()
	}
	close(stop)
	wg.Wait()
	if got := s.Trace().Stats().Recorded; got == 0 {
		t.Error("no spans recorded")
	}
}

// TestDownRoundSentinelTailAccounting is satellite 2: a down round is
// recorded once as the 16·t sentinel — beyond the top finite bucket (8t),
// so it lands in the +Inf bucket — and therefore counts against the
// histogram's late tail TailAbove(t) exactly once, with a finite sum.
func TestDownRoundSentinelTailAccounting(t *testing.T) {
	const downFrom, downUntil = 10, 13 // 3 down rounds on disk 0
	s := tracedFaultServer(t, 1, &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: 0, From: downFrom, Until: downUntil},
	}}, DegradeConfig{})
	const rounds = 40
	lateServed := 0
	for r := 0; r < rounds; r++ {
		rep := s.Step()
		if !rep.Disks[0].Down && rep.Disks[0].Busy > 1 {
			lateServed++
		}
	}
	hv := s.tel.disks[0].roundTime.SnapshotValues()
	if hv.Count != rounds {
		t.Fatalf("histogram count = %d, want %d (down rounds must be observed exactly once)", hv.Count, rounds)
	}
	down := downUntil - downFrom
	wantTail := float64(down+lateServed) / float64(rounds)
	if got := hv.TailAbove(1); math.Abs(got-wantTail) > 1e-12 {
		t.Errorf("TailAbove(t) = %v, want %v (%d down + %d late of %d rounds)",
			got, wantTail, down, lateServed, rounds)
	}
	// The sentinel lies strictly beyond the top finite bucket, so every
	// down round sits in the +Inf bucket.
	top := hv.Bounds[len(hv.Bounds)-1]
	if !(sweep.DownRoundLengths*1.0 > top) {
		t.Fatalf("sentinel %v not beyond top bucket %v", sweep.DownRoundLengths*1.0, top)
	}
	if inf := hv.Counts[len(hv.Counts)-1]; inf < int64(down) {
		t.Errorf("+Inf bucket holds %d, want >= %d down rounds", inf, down)
	}
	if math.IsInf(hv.Sum, 1) || math.IsNaN(hv.Sum) {
		t.Errorf("histogram sum is not finite: %v", hv.Sum)
	}
	// Spans agree: down spans carry the sentinel as their Observed value.
	for _, sp := range s.Trace().Live() {
		if sp.Down && sp.Observed != sweep.DownRoundLengths*1.0 {
			t.Errorf("down span round %d observed %v, want sentinel %v", sp.Round, sp.Observed, sweep.DownRoundLengths*1.0)
		}
	}
}

// TestSentinelBucketBoundaryEdges pins the boundary semantics the
// sentinel interaction depends on: an observation exactly at t is on time
// (TailAbove(t) is strictly-greater), an observation just past t is late,
// and 8t (the top finite bound) is still finite-bucketed while the 16·t
// sentinel overflows.
func TestSentinelBucketBoundaryEdges(t *testing.T) {
	s := paperServer(t, 1)
	h := s.tel.disks[0].roundTime
	h.Observe(1.0)                  // exactly t: on time
	h.Observe(math.Nextafter(1, 2)) // one ulp past t: late
	h.Observe(8.0)                  // top finite bound: late but finite-bucketed
	h.Observe(sweep.DownRoundLengths * 1.0)
	hv := h.SnapshotValues()
	if got, want := hv.TailAbove(1), 3.0/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("TailAbove(t) = %v, want %v", got, want)
	}
	if inf := hv.Counts[len(hv.Counts)-1]; inf != 1 {
		t.Errorf("+Inf bucket = %d, want exactly the sentinel", inf)
	}
}

// TestTracingDisabled verifies the Disabled switch yields a nil recorder
// whose surface stays inert while the server runs normally.
func TestTracingDisabled(t *testing.T) {
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Trace:       trace.Config{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace().Enabled() {
		t.Fatal("recorder should be nil when disabled")
	}
	if err := s.AddSyntheticObject("v", 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("v"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		s.Step()
	}
	if got := s.Trace().Live(); got != nil {
		t.Errorf("disabled recorder returned spans: %v", got)
	}
	if st := s.Trace().Stats(); st != (trace.Stats{}) {
		t.Errorf("disabled recorder stats = %+v", st)
	}
}
