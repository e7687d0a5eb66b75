package trace

import (
	"encoding/json"
	"sync"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/sweep"
)

// span builds a sweep of reqs requests through the write path.
func span(round, disk int, reqs int) *Span { return fill(&Span{}, round, disk, reqs) }

// testDisk is the disk the write-path helpers serve on.
var testDisk = disk.QuantumViking21()

// fill writes a sweep of reqs requests into sp, as a server refills its
// one Span after each Record: cylinders 10 apart in SCAN order on
// testDisk, each served by the kernel's per-request arithmetic.
func fill(sp *Span, round, d int, reqs int) *Span {
	sp.Sweep = Sweep{Round: round, Disk: d}
	sp.Served(testDisk, fault.Identity())
	var cur sweep.Cursor
	for i := 0; i < reqs; i++ {
		r := sweep.Request{
			Fragment: sweep.Fragment{Cylinder: 10 * i, Zone: testDisk.ZoneOfCylinder(10 * i), Size: 1000},
			Drawn:    0.002,
		}
		cur.Advance(testDisk, 1, 1, &r)
		sp.Append(int64(i+1), &r, false)
		sp.Seek += r.Seek
		sp.Rotation += r.Rotation
		sp.Transfer += r.Transfer
		sp.Busy = r.End
	}
	sp.Observed = sp.Busy
	return sp
}

func TestRecorderLiveOrderAndDeepCopy(t *testing.T) {
	r := NewRecorder(Config{Spans: 4, RoundLength: 1})
	for i := 0; i < 6; i++ { // wraps the 4-slot ring
		r.Record(span(i, 0, 2))
	}
	live := r.Live()
	if len(live) != 4 {
		t.Fatalf("live len = %d, want 4", len(live))
	}
	for i, sp := range live {
		if want := uint64(i + 2); sp.Seq != want {
			t.Errorf("live[%d].Seq = %d, want %d", i, sp.Seq, want)
		}
		if sp.Round != i+2 {
			t.Errorf("live[%d].Round = %d, want %d", i, sp.Round, i+2)
		}
		if len(sp.Requests) != 2 {
			t.Errorf("live[%d] has %d requests, want 2", i, len(sp.Requests))
		}
	}
	// Deep copy: recording more spans must not mutate the returned slice.
	before := live[0].Requests[0]
	for i := 6; i < 12; i++ {
		r.Record(span(i, 0, 5))
	}
	if live[0].Requests[0] != before {
		t.Error("Live() result mutated by later Record calls")
	}
}

func TestRecorderFreezeLatch(t *testing.T) {
	r := NewRecorder(Config{Spans: 8, RoundLength: 1})
	for i := 0; i < 3; i++ {
		r.Record(span(i, 0, 1))
	}
	if _, ok := r.Frozen(); ok {
		t.Fatal("snapshot held before any trigger")
	}
	r.Freeze("glitch", 2)
	snap, ok := r.Frozen()
	if !ok || snap.Reason != "glitch" || snap.Round != 2 || len(snap.Spans) != 3 {
		t.Fatalf("frozen = %+v ok=%v", snap, ok)
	}
	if snap.Seq != 2 {
		t.Errorf("snapshot seq = %d, want 2", snap.Seq)
	}
	// Each call expands its own copy.
	snap.Spans[0].Requests[0].Stream = -1
	if again, _ := r.Frozen(); again.Spans[0].Requests[0].Stream != 1 {
		t.Error("Frozen() results share their requests")
	}
	// Later triggers must not replace the latched history.
	r.Record(span(3, 0, 1))
	r.Freeze("down_round", 3)
	snap2, _ := r.Frozen()
	if snap2.Reason != "glitch" || len(snap2.Spans) != 3 {
		t.Errorf("latched snapshot replaced by later trigger: %+v", snap2)
	}
	if st := r.Stats(); st.Triggers != 2 || !st.Frozen || st.Recorded != 4 {
		t.Errorf("stats = %+v", st)
	}
	// Clear releases the latch for the next trigger.
	r.Clear()
	if _, ok := r.Frozen(); ok {
		t.Fatal("snapshot survives Clear")
	}
	r.Freeze("degrade", 3)
	snap3, ok := r.Frozen()
	if !ok || snap3.Reason != "degrade" || len(snap3.Spans) != 4 {
		t.Errorf("post-clear freeze = %+v ok=%v", snap3, ok)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Record(span(0, 0, 1)) // must not panic
	r.Freeze("glitch", 0)
	r.Clear()
	if got := r.Live(); len(got) != 0 {
		t.Errorf("nil Live() = %v", got)
	}
	if got := r.Sweeps(); len(got) != 0 {
		t.Errorf("nil Sweeps() = %v", got)
	}
	if _, ok := r.Frozen(); ok {
		t.Error("nil recorder froze a snapshot")
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats() = %+v", st)
	}
	if r.RoundLength() != 1 {
		t.Errorf("nil RoundLength() = %v", r.RoundLength())
	}
}

// TestRecorderConcurrentStress hammers one recorder from parallel writers
// while snapshot readers run, then proves the retained history is a
// consistent, gap-free sequence. Run under -race this is the flight
// recorder's data-race regression.
func TestRecorderConcurrentStress(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
		readers   = 4
	)
	r := NewRecorder(Config{Spans: 64, RoundLength: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				live := r.Live()
				for i := 1; i < len(live); i++ {
					if live[i].Seq != live[i-1].Seq+1 {
						t.Errorf("gap in live sequence: %d then %d", live[i-1].Seq, live[i].Seq)
						return
					}
				}
				for _, sp := range live {
					for j, e := range sp.Requests {
						if e.Stream != int64(j+1) || e.Cylinder != 10*j {
							t.Errorf("span seq %d request %d torn: %+v", sp.Seq, j, e)
							return
						}
					}
				}
				for _, h := range r.Sweeps() {
					if h.Requests != 3 {
						t.Errorf("span seq %d counts %d requests, want 3", h.Seq, h.Requests)
						return
					}
				}
				r.Freeze("stress", 0)
				if snap, ok := r.Frozen(); ok {
					for i := 1; i < len(snap.Spans); i++ {
						if snap.Spans[i].Seq != snap.Spans[i-1].Seq+1 {
							t.Errorf("gap in frozen sequence: %d then %d",
								snap.Spans[i-1].Seq, snap.Spans[i].Seq)
							return
						}
					}
				}
				r.Clear()
				_ = r.Stats()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			sp := &Span{} // one per writer, refilled after each Record
			for i := 0; i < perWriter; i++ {
				fill(sp, i, w, 3)
				r.Record(sp)
				if len(sp.reqs) != 0 {
					t.Errorf("Record left %d requests in the writer's span", len(sp.reqs))
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	live := r.Live()
	if len(live) != 64 {
		t.Fatalf("retained %d spans, want full ring of 64", len(live))
	}
	for i := 1; i < len(live); i++ {
		if live[i].Seq != live[i-1].Seq+1 {
			t.Fatalf("final ring has a gap: seq %d then %d", live[i-1].Seq, live[i].Seq)
		}
	}
	if live[len(live)-1].Seq != writers*perWriter-1 {
		t.Errorf("last seq = %d, want %d", live[len(live)-1].Seq, writers*perWriter-1)
	}
	if st := r.Stats(); st.Recorded != writers*perWriter {
		t.Errorf("recorded = %d, want %d", st.Recorded, writers*perWriter)
	}
}

func TestChromeTraceShapeAndDurations(t *testing.T) {
	r := NewRecorder(Config{Spans: 16, RoundLength: 2})
	var wantSum float64
	for i := 0; i < 5; i++ {
		sp := span(i, 0, 3)
		wantSum += sp.Observed
		r.Record(sp)
	}
	down := &Span{}                                                  // a failed disk with no requests due
	down.Round, down.Disk, down.Down, down.Observed = 5, 1, true, 32 // 16·t sentinel
	r.Record(down)

	f := ChromeTrace(r.Live(), 2)
	var sweepSum float64
	sweeps, requests, metas := 0, 0, 0
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M":
			metas++
		case ev.Cat == "sweep":
			sweeps++
			sweepSum += ev.Dur / 1e6
			if wantTs := float64(ev.Args["seq"].(uint64)) * 2 * 1e6; ev.Ts != wantTs {
				t.Errorf("sweep %v starts at %v us, want %v", ev.Name, ev.Ts, wantTs)
			}
		case ev.Cat == "request":
			requests++
			if ev.Dur <= 0 {
				t.Errorf("request event %q has non-positive duration", ev.Name)
			}
		}
	}
	if sweeps != 6 || requests != 15 || metas != 6 {
		t.Errorf("got %d sweeps, %d requests, %d metadata events; want 6/15/6", sweeps, requests, metas)
	}
	// Sweep durations reproduce the histogram-observed totals, down-round
	// sentinel included.
	wantSum += 32
	if diff := sweepSum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sweep duration sum %.12f, want %.12f", sweepSum, wantSum)
	}
	// The export must be valid JSON with the documented envelope.
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.TraceEvents) != len(f.TraceEvents) {
		t.Errorf("round-trip lost events: %d vs %d", len(back.TraceEvents), len(f.TraceEvents))
	}
}
