package server

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// digest folds typed values into one FNV-1a hash, so a golden constant
// pins every bit of every field fed to it.
type digest struct{ h hash.Hash64 }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}
func (d digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d digest) report(rep RoundReport) {
	d.int(rep.Round)
	d.int(len(rep.Disks))
	for _, dr := range rep.Disks {
		d.int(dr.Requests)
		d.f64(dr.Busy)
		d.f64(dr.Seek)
		d.f64(dr.Rotation)
		d.f64(dr.Transfer)
		d.int(dr.Late)
		d.bool(dr.Faulty)
		d.int(dr.Retries)
		d.int(dr.Lost)
		d.bool(dr.Down)
	}
	d.int(rep.Glitches)
	d.int(len(rep.Completed))
	for _, id := range rep.Completed {
		d.int(int(id))
	}
	d.int(len(rep.Evicted))
	for _, id := range rep.Evicted {
		d.int(int(id))
	}
}

func (d digest) span(sp trace.RoundSpan) {
	d.u64(sp.Seq)
	d.int(sp.Round)
	d.int(sp.Disk)
	d.int(len(sp.Requests))
	for _, e := range sp.Requests {
		d.u64(uint64(e.Stream))
		d.int(e.Cylinder)
		d.int(e.Zone)
		d.int(e.SeekCylinders)
		d.f64(e.Bytes)
		d.f64(e.Start)
		d.f64(e.Seek)
		d.f64(e.Rotation)
		d.f64(e.Transfer)
		d.int(e.Retries)
		d.bool(e.Late)
		d.bool(e.Lost)
	}
	d.f64(sp.Seek)
	d.f64(sp.Rotation)
	d.f64(sp.Transfer)
	d.f64(sp.Busy)
	d.f64(sp.Observed)
	d.int(sp.Late)
	d.int(sp.Lost)
	d.int(sp.Retries)
	d.bool(sp.Faulty)
	d.bool(sp.Down)
}

// goldenPlan puts every fault kind inside the 300-round horizon: latency
// on all disks, a zone-rate slowdown, read errors with retries (some
// exhausted), and a disk failure.
func goldenPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 7,
		Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 20, Until: 60, Factor: 1.5},
			{Kind: fault.ReadError, Disk: 0, From: 30, Until: 190, Prob: 0.2, Retries: 1},
			{Kind: fault.ZoneRate, Disk: 1, From: 40, Until: 80, Factor: 0.7},
			{Kind: fault.Failure, Disk: 1, From: 100, Until: 105},
			{Kind: fault.Latency, Disk: 1, From: 200, Until: 260, Factor: 1.2},
		},
	}
}

// TestStepGolden pins Server.Step's observable output bit for bit: an
// FNV-1a digest over every RoundReport field of a seeded 300-round run
// and, with tracing on, every committed RoundSpan and RequestEvent. The
// constants were computed at the commit before the sweep kernel was
// extracted; a refactor of the sweep must leave them unchanged.
func TestStepGolden(t *testing.T) {
	const (
		rounds      = 300
		emptyDigest = 0xcbf29ce484222325 // FNV-1a offset basis: no spans
	)
	cases := []struct {
		name    string
		plan    *fault.Plan
		traced  bool
		reports uint64
		spans   uint64
	}{
		{"healthy/trace-on", nil, true, 0x3a57befdaea70583, 0xd33647dd643c02f6},
		{"healthy/trace-off", nil, false, 0x3a57befdaea70583, emptyDigest},
		{"faulted/trace-on", goldenPlan(), true, 0xa744eed9fc44d7ae, 0xe6a894772a0f8683},
		{"faulted/trace-off", goldenPlan(), false, 0xa744eed9fc44d7ae, emptyDigest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{
				Disk:        disk.QuantumViking21(),
				NumDisks:    2,
				RoundLength: 1,
				Sizes:       workload.PaperSizes(),
				Guarantee:   model.Guarantee{Threshold: 0.01},
				Seed:        42,
				Faults:      tc.plan,
				Degrade:     DegradeConfig{Enabled: tc.plan != nil},
				Trace:       trace.Config{Disabled: !tc.traced},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Objects of staggered length, so streams complete (and their
			// slots stay empty) inside the horizon.
			for i := 0; i < s.Capacity(); i++ {
				name := fmt.Sprintf("v%d", i)
				if err := s.AddSyntheticObject(name, 200+10*i); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Open(name); err != nil {
					t.Fatalf("open %d: %v", i, err)
				}
			}
			reports := digest{fnv.New64a()}
			for r := 0; r < rounds; r++ {
				reports.report(s.Step())
			}
			if got := reports.h.Sum64(); got != tc.reports {
				t.Errorf("report digest = %#x, want %#x", got, tc.reports)
			}
			spans := digest{fnv.New64a()}
			live := s.Trace().Live()
			if tc.traced && len(live) == 0 {
				t.Fatal("no spans recorded")
			}
			for _, sp := range live {
				spans.span(sp)
			}
			if got := spans.h.Sum64(); got != tc.spans {
				t.Errorf("span digest = %#x, want %#x (%d spans)", got, tc.spans, len(live))
			}
		})
	}
}
