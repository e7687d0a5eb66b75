package server

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
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
	for _, ev := range rep.Evicted {
		d.int(int(ev.ID))
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

// lifecycle drives a server through seeded active-set mutations — every
// way a stream enters or leaves the round loop — folding each outcome
// into d.
type lifecycle struct {
	s       *Server
	rng     *rand.Rand
	d       digest
	objects []string
	issued  StreamID // highest id ever returned
	// exported marks the ids opMigrate took out of the active set: what
	// Stats answers for them is the ledger's business, which
	// TestStatsAnswersFromLedger covers, so the digest leaves them out.
	exported map[StreamID]bool

	// Coverage counters: what the schedule actually reached.
	migrated, reimported int
}

const (
	opOpen = iota
	opClose
	opMigrate
	numOps
)

func newLifecycle(t testing.TB, seed uint64, plan *fault.Plan, traced bool) *lifecycle {
	t.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    3,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        seed,
		Faults:      plan,
		Degrade:     DegradeConfig{Enabled: true},
		Trace:       trace.Config{Disabled: !traced},
	})
	if err != nil {
		t.Fatal(err)
	}
	lc := &lifecycle{s: s, rng: rand.New(rand.NewPCG(seed, 0x6c6966)), d: digest{fnv.New64a()}, exported: make(map[StreamID]bool)}
	// Short clips of staggered length, so completions interleave with
	// the scripted exits.
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("v%d", i)
		if err := s.AddSyntheticObject(name, 30+7*i); err != nil {
			t.Fatal(err)
		}
		lc.objects = append(lc.objects, name)
	}
	return lc
}

// lifecyclePlan degrades far enough to shed, changes shape inside the
// degraded window, and fails a disk (which closes admission while the
// streams ride the outage out).
func lifecyclePlan() *fault.Plan {
	return &fault.Plan{
		Seed: 11,
		Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 60, Until: 120, Factor: 1.6},
			{Kind: fault.ZoneRate, Disk: 1, From: 90, Until: 120, Factor: 0.6},
			{Kind: fault.ReadError, Disk: 0, From: 150, Until: 180, Prob: 0.2, Retries: 1},
			{Kind: fault.Failure, Disk: 2, From: 220, Until: 226},
		},
	}
}

func (lc *lifecycle) note(id StreamID, delay int, err error) {
	lc.d.int(int(id))
	lc.d.int(delay)
	lc.d.bool(err != nil)
	if err == nil && id > lc.issued {
		lc.issued = id
	}
}

// pickActive returns a uniformly drawn active stream.
func (lc *lifecycle) pickActive() (StreamID, bool) {
	ids := lc.s.ActiveStreams()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[lc.rng.IntN(len(ids))], true
}

// do performs one mutation of the given kind (a no-op when it has no
// candidate stream).
func (lc *lifecycle) do(op int) {
	lc.d.int(op)
	switch op {
	case opOpen:
		id, delay, err := lc.s.Open(lc.objects[lc.rng.IntN(len(lc.objects))])
		lc.note(id, delay, err)
	case opClose:
		if id, ok := lc.pickActive(); ok {
			lc.note(id, 0, lc.s.Close(id))
		}
	case opMigrate:
		if id, ok := lc.pickActive(); ok {
			lc.exported[id] = true
			lc.migrate(id)
			lc.migrated++
		}
	}
}

// migrate exports a stream and imports its state back into the same
// server, as a coordinator would onto a sibling.
func (lc *lifecycle) migrate(id StreamID) {
	state, err := lc.s.ExportStream(id)
	lc.note(id, state.Position, err)
	if err != nil {
		return
	}
	nid, delay, err := lc.s.ImportStream(state)
	lc.note(nid, delay, err)
}

// resume imports a shed stream's state from its round report back into
// the same server, as a coordinator would onto a sibling; the digest
// reads as it does for an export.
func (lc *lifecycle) resume(ev engine.Eviction) {
	lc.note(ev.ID, ev.State.Position, nil)
	nid, delay, err := lc.s.ImportStream(ev.State)
	lc.note(nid, delay, err)
}

// step runs one round and folds in everything observable afterwards: the
// report, the active set, and the stats of every id ever issued.
func (lc *lifecycle) step() RoundReport {
	rep := lc.s.Step()
	lc.d.report(rep)
	// A coordinator turns evictions into migrations: the first shed
	// stream of the round resumes from the state its report carries.
	if len(rep.Evicted) > 0 {
		lc.resume(rep.Evicted[0])
		lc.reimported++
	}
	lc.d.int(lc.s.Active())
	lc.d.int(lc.s.PerDiskLimit())
	for _, id := range lc.s.ActiveStreams() {
		lc.d.int(int(id))
	}
	for id := StreamID(1); id <= lc.issued; id++ {
		if lc.exported[id] {
			continue
		}
		st, err := lc.s.Stats(id)
		lc.d.bool(err != nil)
		lc.d.h.Write([]byte(st.Object))
		lc.d.int(st.Served)
		lc.d.int(st.Glitches)
		lc.d.int(st.StartupDelay)
		lc.d.bool(st.Done)
	}
	return rep
}

// TestStepGoldenLifecycle extends TestStepGolden from an open-only run to
// the whole stream lifecycle: a seeded 300-round, 3-disk schedule that
// interleaves Open, Close, ExportStream + ImportStream, completions, and a
// degrade plan whose latency faults shed. The digest covers every report
// field, the active set and the stats of every issued id but the ones
// opMigrate exported (shed ids stay in) after each round. The constants were computed with the disk failure closing admission only,
// the one failure reaction the server has.
func TestStepGoldenLifecycle(t *testing.T) {
	const rounds = 300
	cases := []struct {
		name          string
		traced        bool
		digest, spans uint64
	}{
		{"trace-on", true, 0x2f6130b0716d1dfc, 0xf6c9fff4530ec024},
		{"trace-off", false, 0x2f6130b0716d1dfc, 0xcbf29ce484222325},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lc := newLifecycle(t, 42, lifecyclePlan(), tc.traced)
			for i := 0; i < lc.s.Capacity(); i++ {
				lc.do(opOpen)
			}
			evicted, completed := 0, 0
			for r := 0; r < rounds; r++ {
				for k := lc.rng.IntN(6); k > 0; k-- {
					// Opens outweigh the exits so the classes stay near
					// their limit and the degraded limit has to shed.
					op := opOpen
					if lc.rng.IntN(2) == 0 {
						op = lc.rng.IntN(numOps)
					}
					lc.do(op)
				}
				rep := lc.step()
				evicted += len(rep.Evicted)
				completed += len(rep.Completed)
			}
			if lc.migrated == 0 || lc.reimported == 0 || evicted == 0 || completed == 0 {
				t.Fatalf("schedule missed a path: migrated=%d reimported=%d evicted=%d completed=%d",
					lc.migrated, lc.reimported, evicted, completed)
			}
			if got := lc.d.h.Sum64(); got != tc.digest {
				t.Errorf("lifecycle digest = %#x, want %#x", got, tc.digest)
			}
			spans := digest{fnv.New64a()}
			for _, sp := range lc.s.Trace().Live() {
				spans.span(sp)
			}
			if got := spans.h.Sum64(); got != tc.spans {
				t.Errorf("span digest = %#x, want %#x", got, tc.spans)
			}
		})
	}
}
