package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// quote is what a reader can see of the limits in force. Fields a surface
// does not report stay zero, on both sides of the comparison.
type quote struct {
	nmax, capacity   int
	degraded, failed bool
	bindDisk, exps   int
	bindNMax         int // the binding disk's own explained N_max (not 0 under a failure)
}

func (q quote) health() quote {
	return quote{nmax: q.nmax, capacity: q.capacity, degraded: q.degraded, failed: q.failed}
}

func (q quote) admission() quote {
	q.failed = false
	return q
}

func (q quote) tightness() quote { return quote{nmax: q.nmax} }

// TestLimitsReadersSeeOneQuote: the loop walks healthy → degraded → disk
// failed → restored → recalibrated, six times over with a different
// slowdown each time, and records every limits value it installs, while
// readers hammer the three concurrent surfaces. Whatever a reader sees —
// N_max, capacity, the degraded and failed flags, the binding disk, the
// explanations — must be one installed value's, never a mix of two.
func TestLimitsReadersSeeOneQuote(t *testing.T) {
	const cycle, cycles = 50, 6
	plan := &fault.Plan{Seed: 5}
	for c := 0; c < cycles; c++ {
		at := c * cycle
		plan.Faults = append(plan.Faults,
			fault.Fault{Kind: fault.Latency, Disk: 1, From: at + 5, Until: at + 15, Factor: 1.2 + 0.1*float64(c)},
			fault.Fault{Kind: fault.Failure, Disk: 2, From: at + 25, Until: at + 35},
		)
	}
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    3,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults:      plan,
		Degrade:     DegradeConfig{Enabled: true},
		Trace:       trace.Config{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity(); i++ {
		name := fmt.Sprintf("v%d", i)
		if err := s.AddSyntheticObject(name, cycle*cycles); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Open(name); err != nil {
			t.Fatal(err)
		}
	}

	installed := map[quote]bool{}
	record := func() {
		lim := s.lim.Load()
		installed[quote{
			nmax: lim.nmax, capacity: lim.nmax * 3, degraded: lim.degraded, failed: lim.failed,
			bindDisk: lim.bindDisk, exps: len(lim.explains), bindNMax: lim.explains[lim.bindDisk].NMax,
		}] = true
	}
	record()

	done := make(chan struct{})
	var wg sync.WaitGroup
	seen := make([]map[quote]bool, 3)
	var reads [3]atomic.Int64
	for i, read := range []func() quote{
		func() quote {
			h := s.Health()
			return quote{nmax: h.PerDiskLimit, capacity: h.Capacity, degraded: h.Degraded, failed: h.Failed}
		},
		func() quote {
			a := s.AdmissionStatus()
			return quote{
				nmax: a.NMax, capacity: a.Capacity, degraded: a.Degraded,
				bindDisk: a.BindingDisk, exps: len(a.Explanations), bindNMax: a.Explanations[a.BindingDisk].NMax,
			}
		},
		func() quote {
			rep, err := s.BoundTightness()
			if err != nil {
				t.Error(err)
			}
			return quote{nmax: rep.PerDiskLimit}
		},
	} {
		seen[i] = map[quote]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seen[i][read()] = true
				reads[i].Add(1)
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}

	// turn waits for a read by every reader, so each install below lands
	// beside reads in flight rather than after the readers' only turn.
	turn := func() {
		for i := range reads {
			for from := reads[i].Load(); reads[i].Load() < from+1; {
				runtime.Gosched()
			}
		}
	}
	for r := 0; r < cycle*cycles; r++ {
		turn()
		// Refit once a cycle with the array healthy again and, every other
		// cycle, once under the standing failure (failed is carried).
		if at := r % cycle; at == 45 || (at == 30 && r/cycle%2 == 1) {
			if _, _, err := s.Recalibrate(2); err != nil {
				t.Fatal(err)
			}
			record()
		}
		s.Step()
		record()
	}
	close(done)
	wg.Wait()

	states := map[[2]bool]bool{}
	for q := range installed {
		states[[2]bool{q.degraded, q.failed}] = true
	}
	if len(states) != 4 || len(installed) < cycles {
		t.Fatalf("the script installed %d distinct values covering (degraded, failed) = %v; want all four combinations and a value per cycle", len(installed), states)
	}
	for i, project := range []func(quote) quote{quote.health, quote.admission, quote.tightness} {
		want := map[quote]bool{}
		for q := range installed {
			want[project(q)] = true
		}
		if len(seen[i]) < 2 {
			t.Errorf("reader %d saw %d distinct quotes: it did not run beside the loop", i, len(seen[i]))
		}
		for q := range seen[i] {
			if !want[q] {
				t.Errorf("reader %d saw %+v, which no installed limits value projects to", i, q)
			}
		}
	}
}
