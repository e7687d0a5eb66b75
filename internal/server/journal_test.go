package server

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// journaledServer builds a paper-parameter server with a journal and QoS
// ledger wired.
func journaledServer(t testing.TB, disks int, plan *fault.Plan, deg DegradeConfig) (*Server, *journal.Journal, *journal.Ledger) {
	t.Helper()
	reg := telemetry.NewRegistry()
	jnl := journal.New(journal.Config{Registry: reg})
	led := journal.NewLedger(journal.LedgerConfig{})
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults:      plan,
		Degrade:     deg,
		Registry:    reg,
		Journal:     jnl,
		Ledger:      led,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, jnl, led
}

// TestLedgerGlitchExactness is the acceptance check on the ledger's
// delivered stats: with error faults glitching fragments, the sum of
// retired streams' glitch counts must equal the engine's own per-round
// totals exactly — the ledger neither drops nor double-counts.
func TestLedgerGlitchExactness(t *testing.T) {
	plan := &fault.Plan{
		Seed: 11,
		Faults: []fault.Fault{
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: 0, Until: 200, Prob: 0.3},
		},
	}
	s, _, led := journaledServer(t, 2, plan, DegradeConfig{})

	const clipLen = 40
	sizes := make([]float64, clipLen)
	for i := range sizes {
		sizes[i] = 200e3
	}
	for i := 0; i < s.Capacity(); i++ {
		name := fmt.Sprintf("v%d", i)
		if err := s.AddObject(name, sizes); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Open(name); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}

	reportGlitches := 0
	for r := 0; r < 100; r++ {
		rep := s.Step()
		reportGlitches += rep.Glitches
	}
	if s.Active() != 0 {
		t.Fatalf("%d streams still active after 100 rounds of %d-fragment clips", s.Active(), clipLen)
	}
	if reportGlitches == 0 {
		t.Fatal("fault plan produced no glitches; the comparison is vacuous")
	}

	rep := led.Report()
	if rep.ActiveStreams != 0 || rep.InflightMigrations != 0 {
		t.Fatalf("ledger still tracking streams: %+v", rep)
	}
	ledgerGlitches := 0
	for _, rec := range rep.Retired {
		if !rec.Delivered.Done {
			t.Fatalf("retired record not done: %+v", rec)
		}
		ledgerGlitches += rec.Delivered.Glitches
	}
	if ledgerGlitches != reportGlitches {
		t.Fatalf("ledger glitch total %d != engine round-report total %d", ledgerGlitches, reportGlitches)
	}

	// Per-stream: every record's delivered stats must match the server's
	// retained finished-stream stats.
	for _, rec := range rep.Retired {
		st, err := s.Stats(StreamID(rec.Stream))
		if err != nil {
			t.Fatalf("stats for stream %d: %v", rec.Stream, err)
		}
		if st.Glitches != rec.Delivered.Glitches || st.Served != rec.Delivered.Served {
			t.Fatalf("stream %d: ledger %+v vs server %+v", rec.Stream, rec.Delivered, st)
		}
	}
}

// TestJournalAdmitRejectEvents checks the admission emitters: every admit
// carries the promise into the ledger, and a rejection lands in the
// journal with its reason.
func TestJournalAdmitRejectEvents(t *testing.T) {
	s, jnl, led := journaledServer(t, 2, nil, DegradeConfig{})
	for i := 0; i < s.Capacity()+1; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 600); err != nil {
			t.Fatal(err)
		}
	}
	admitted := 0
	var rejections int
	for i := 0; i < s.Capacity()+1; i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			rejections++
		} else {
			admitted++
		}
	}
	if rejections == 0 {
		t.Fatal("capacity+1 opens produced no rejection")
	}

	admits := jnl.Events(journal.Filter{Shard: -1, Disk: -1, Kinds: []journal.Kind{journal.KindAdmit}})
	if len(admits) != admitted {
		t.Fatalf("admit events %d != admitted %d", len(admits), admitted)
	}
	rejects := jnl.Events(journal.Filter{Shard: -1, Disk: -1, Kinds: []journal.Kind{journal.KindReject}})
	if len(rejects) != rejections {
		t.Fatalf("reject events %d != rejections %d", len(rejects), rejections)
	}
	if rejects[0].Detail != RejectClassesFull && rejects[0].Detail != RejectOverload {
		t.Fatalf("reject detail %q is not a rejection reason", rejects[0].Detail)
	}

	// Every admit cross-links a ledger record carrying the quoted bounds.
	rep := led.Report()
	if len(rep.Active) != admitted {
		t.Fatalf("ledger active %d != admitted %d", len(rep.Active), admitted)
	}
	for _, rec := range rep.Active {
		if rec.AdmitSeq == 0 {
			t.Fatalf("record without admit seq: %+v", rec)
		}
		if rec.Promised.BoundLate <= 0 || rec.Promised.BindingK <= 0 {
			t.Fatalf("promise not captured: %+v", rec.Promised)
		}
		if rec.Promised.BindingBound == "" {
			t.Fatalf("binding bound family missing: %+v", rec.Promised)
		}
	}
}

// TestJournalDegradeEvictArc checks the degraded-mode emitters: a
// sustained fault produces fault_inject, degrade (with the N_max
// transition), evict (for shed streams), restore, and fault_clear, in
// sequence order.
func TestJournalDegradeEvictArc(t *testing.T) {
	plan := &fault.Plan{
		Seed: 5,
		Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 5, Until: 40, Factor: 3},
		},
	}
	s, jnl, _ := journaledServer(t, 2, plan, DegradeConfig{Enabled: true})
	for i := 0; i < s.Capacity(); i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	evicted := 0
	for r := 0; r < 60; r++ {
		evicted += len(s.Step().Evicted)
	}
	if evicted == 0 {
		t.Skip("latency fault did not force evictions at these parameters")
	}

	var seqs []uint64
	for _, k := range []journal.Kind{
		journal.KindFaultInject, journal.KindDegrade, journal.KindEvict,
		journal.KindRestore, journal.KindFaultClear,
	} {
		evs := jnl.Events(journal.Filter{Shard: -1, Disk: -1, Kinds: []journal.Kind{k}})
		if len(evs) == 0 {
			t.Fatalf("no %s events", k)
		}
		seqs = append(seqs, evs[0].Seq)
	}
	// fault_inject precedes degrade precedes the first evict.
	if !(seqs[0] < seqs[1] && seqs[1] < seqs[2]) {
		t.Fatalf("arc out of order: inject %d, degrade %d, evict %d", seqs[0], seqs[1], seqs[2])
	}

	evs := jnl.Events(journal.Filter{Shard: -1, Disk: -1, Kinds: []journal.Kind{journal.KindEvict}})
	if len(evs) != evicted {
		t.Fatalf("evict events %d != evicted %d", len(evs), evicted)
	}
	deg := jnl.Events(journal.Filter{Shard: -1, Disk: -1, Kinds: []journal.Kind{journal.KindDegrade}})[0]
	if deg.From <= deg.To {
		t.Fatalf("degrade should shrink N_max: from %d to %d", deg.From, deg.To)
	}
}

// tail folds every field of a delivered-tail summary, Mean's bits included.
func (d digest) tail(ts journal.TailSummary) {
	d.u64(uint64(ts.Count))
	d.f64(ts.Mean)
	d.f64(ts.P50)
	d.f64(ts.P90)
	d.f64(ts.P99)
	d.f64(ts.P999)
}

// record folds every field of a ledger record, promise and lineage included.
func (d digest) record(rec journal.Record) {
	d.u64(uint64(rec.Stream))
	d.int(rec.Shard)
	d.str(rec.Object)
	p := rec.Promised
	d.str(p.Object)
	d.int(p.Shard)
	d.int(p.Round)
	d.int(p.SlotDelay)
	d.f64(p.BoundLate)
	d.f64(p.BoundGlitch)
	d.int(p.BindingDisk)
	d.int(p.BindingK)
	d.str(p.BindingBound)
	d.f64(p.Theta)
	v := rec.Delivered
	d.int(v.StartupDelay)
	d.int(v.Served)
	d.int(v.Glitches)
	d.bool(v.Done)
	d.bool(v.Evicted)
	d.bool(v.Abandoned)
	d.int(rec.Migrations)
	d.int(len(rec.ShardsVisited))
	for _, sh := range rec.ShardsVisited {
		d.int(sh)
	}
	d.u64(rec.AdmitSeq)
	d.int(rec.RetiredRound)
}

// TestChurnJournalGolden pins what a churning, journaled server records, bit
// for bit: the ledger's report — both delivered tails (Mean included), the
// stage counts, every retired and active record with its promise — and every
// journal event the ring retains. Clips of one to eight fragments on four
// disks open until the first rejection each round; read errors glitch
// fragments, so the glitch tail has mass above zero; every fifth round
// closes the oldest stream and every seventh exports the newest and imports
// it back. The ledger's retired ring and the journal both wrap.
func TestChurnJournalGolden(t *testing.T) {
	const want uint64 = 0xac6a0934f9a7682f
	plan := &fault.Plan{
		Seed:   13,
		Faults: []fault.Fault{{Kind: fault.ReadError, Disk: fault.AllDisks, From: 0, Until: 1 << 20, Prob: 0.2}},
	}
	s, jnl, led := journaledServer(t, 4, plan, DegradeConfig{})
	var names []string
	for n := 1; n <= 8; n++ {
		name := fmt.Sprintf("c%d", n)
		if err := s.AddSyntheticObject(name, n); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	opened, glitches := 0, 0
	for r := 0; r < 400; r++ {
		for {
			if _, _, err := s.Open(names[opened%len(names)]); err != nil {
				break
			}
			opened++
		}
		ids := s.ActiveStreams()
		if r%5 == 0 && len(ids) > 0 {
			if err := s.Close(ids[0]); err != nil {
				t.Fatal(err)
			}
		}
		if r%7 == 0 && len(ids) > 1 {
			state, err := s.ExportStream(ids[len(ids)-1])
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.ImportStream(state); err != nil {
				t.Fatal(err)
			}
		}
		glitches += s.Step().Glitches
	}
	rep := led.Report()
	if glitches == 0 || rep.GlitchesPerStream.P999 == 0 || rep.RetiredTotal <= int64(rep.Retained) {
		t.Fatalf("schedule missed a path: %d glitches, glitch tail %+v, %d retired for %d retained",
			glitches, rep.GlitchesPerStream, rep.RetiredTotal, rep.Retained)
	}
	if st := jnl.Stats(); st.Dropped == 0 {
		t.Fatalf("the journal never wrapped: %+v", st)
	}
	d := digest{fnv.New64a()}
	d.tail(rep.StartupDelayRounds)
	d.tail(rep.GlitchesPerStream)
	d.int(rep.ActiveStreams)
	d.int(rep.InflightMigrations)
	d.u64(uint64(rep.RetiredTotal))
	d.int(rep.Retained)
	for _, recs := range [][]journal.Record{rep.Retired, rep.Active} {
		d.int(len(recs))
		for _, rec := range recs {
			d.record(rec)
		}
	}
	evs := jnl.Events(journal.MatchAll())
	d.int(len(evs))
	for _, e := range evs {
		d.event(e)
	}
	if got := d.h.Sum64(); got != want {
		t.Errorf("churn digest = %#x, want %#x (startup %+v, glitches %+v)",
			got, want, rep.StartupDelayRounds, rep.GlitchesPerStream)
	}
}
