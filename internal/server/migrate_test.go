package server

import (
	"errors"
	"fmt"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// TestExportImportRoundTrip: a stream exported mid-playback and imported
// back resumes at its fragment position and finishes with exactly the
// remaining rounds — served count, glitches, and delay credit carried.
func TestExportImportRoundTrip(t *testing.T) {
	s := paperServer(t, 4)
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	id, delay, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	s.Run(delay + 30)
	state, err := s.ExportStream(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.Active() != 0 {
		t.Errorf("active = %d after export, want 0", s.Active())
	}
	if state.Object != "v" || state.Position != 30 || state.Served != 30 {
		t.Errorf("exported state = %+v, want v at position/served 30", state)
	}
	if state.Delay != delay {
		t.Errorf("exported delay credit = %d, want %d", state.Delay, delay)
	}
	nid, rdelay, err := s.ImportStream(state)
	if err != nil {
		t.Fatal(err)
	}
	if rdelay < 0 || rdelay >= 4 {
		t.Errorf("import slotting delay = %d, want in [0,4)", rdelay)
	}
	s.Run(rdelay + 70)
	after, err := s.Stats(nid)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Done || after.Served != 100 {
		t.Errorf("after import: %+v, want done with 100 served", after)
	}
	if after.StartupDelay != delay+rdelay {
		t.Errorf("delay credit = %d, want %d (original) + %d (import slotting)",
			after.StartupDelay, delay, rdelay)
	}
}

// TestImportContinuityAcrossDisks: the imported stream must keep reading
// consecutive fragments from the disks that actually store them — over D
// rounds after import it touches each disk exactly once.
func TestImportContinuityAcrossDisks(t *testing.T) {
	s := paperServer(t, 3)
	if err := s.AddSyntheticObject("v", 60); err != nil {
		t.Fatal(err)
	}
	id, delay, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	s.Run(delay + 7)
	state, err := s.ExportStream(id)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds pass while the stream is in flight between shards; the
	// import class arithmetic must account for the moved round counter.
	s.Run(4)
	nid, rdelay, err := s.ImportStream(state)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for r := 0; r < rdelay+3; r++ {
		rep := s.Step()
		for d, dr := range rep.Disks {
			if dr.Requests > 0 {
				seen[d] += dr.Requests
			}
		}
	}
	total := 0
	for d, c := range seen {
		if c != 1 {
			t.Errorf("disk %d served %d fragments, want 1", d, c)
		}
		total += c
	}
	if total != 3 {
		t.Errorf("served %d fragments over the import window, want 3", total)
	}
	st, _ := s.Stats(nid)
	if st.Served != 10 {
		t.Errorf("served = %d, want 10 (7 before export + 3 after import)", st.Served)
	}
}

// TestExportImportValidation covers the contract's error surface: unknown
// streams, unknown objects, out-of-range positions, and a full server.
func TestExportImportValidation(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportStream(9999); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("export unknown err = %v, want ErrUnknownStream", err)
	}
	id, _, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	state, err := s.ExportStream(id)
	if err != nil {
		t.Fatal(err)
	}

	bad := state
	bad.Object = "no-such-object"
	if _, _, err := s.ImportStream(bad); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("import unknown object err = %v, want ErrUnknownObject", err)
	}
	bad = state
	bad.Position = -1
	if _, _, err := s.ImportStream(bad); !errors.Is(err, ErrConfig) {
		t.Errorf("import position -1 err = %v, want ErrConfig", err)
	}
	bad = state
	bad.Position = 50 // one past the last fragment: nothing left to serve
	if _, _, err := s.ImportStream(bad); !errors.Is(err, ErrConfig) {
		t.Errorf("import overrun position err = %v, want ErrConfig", err)
	}

	// Fill every slot: the import is load-shed exactly like an Open.
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, _, err := s.ImportStream(state); !errors.Is(err, ErrRejected) {
		t.Errorf("import at capacity err = %v, want ErrRejected", err)
	}
	// Free one slot and the same import lands.
	victim := s.ActiveStreams()[0]
	if _, err := s.ExportStream(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ImportStream(state); err != nil {
		t.Errorf("import after freeing a slot err = %v", err)
	}
}

// TestEvictedStreamStaysExportable: a stream shed by degraded mode is not
// lost — its round report carries its resumable state (the coordinator's
// migration pickup), the stats it was shed with, and the server keeps no
// second copy to export.
func TestEvictedStreamStaysExportable(t *testing.T) {
	s := faultServer(t, 1, latencyPlan(50, 250), DegradeConfig{Enabled: true})
	var evicted []engine.Eviction
	for r := 0; r < 100 && len(evicted) == 0; r++ {
		rep := s.Step()
		evicted = append(evicted, rep.Evicted...)
	}
	if len(evicted) == 0 {
		t.Fatal("degraded mode shed no streams inside the horizon")
	}
	for _, ev := range evicted {
		state := ev.State
		if state.Object == "" || state.Position <= 0 {
			t.Errorf("evicted state %+v, want mid-playback position", state)
		}
		st, err := s.Stats(ev.ID)
		if err != nil || st.Served != state.Served || st.Glitches != state.Glitches || st.StartupDelay != state.Delay {
			t.Errorf("evicted %d: state %+v, stats %+v (%v): want the stats it was shed with", ev.ID, state, st, err)
		}
		if _, err := s.ExportStream(ev.ID); !errors.Is(err, ErrUnknownStream) {
			t.Errorf("export of evicted %d err = %v, want ErrUnknownStream (its state left in the report)", ev.ID, err)
		}
	}
}

// TestActiveStreamsAscending pins the drain-list contract the coordinator
// relies on during failover.
func TestActiveStreamsAscending(t *testing.T) {
	s := paperServer(t, 2)
	for i := 0; i < 10; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 40); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.ActiveStreams()
	if len(ids) != 10 {
		t.Fatalf("len = %d, want 10", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}
}

// sharedLedgerServer builds a paper-parameter server on disks disks that
// files its ledger records under shard in led.
func sharedLedgerServer(t *testing.T, disks, shard int, led *journal.Ledger, plan *fault.Plan) *Server {
	t.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42 + uint64(shard),
		Faults:      plan,
		Degrade:     DegradeConfig{Enabled: true, After: 1},
		Ledger:      led,
		Shard:       shard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStatsAnswersFromLedger pins what Stats answers once a stream has left
// the active set by a way other than Close or completion: whatever the
// ledger finalized under the server's (shard, id).
func TestStatsAnswersFromLedger(t *testing.T) {
	// An export with no migration waiting on it finalizes the record, so
	// Stats answers with the service as of the export. With the inflight
	// stage on, the stream is nobody's until the coordinator resolves it;
	// an abandoned migration finalizes under its source.
	for _, inflight := range []bool{false, true} {
		t.Run(fmt.Sprintf("export/inflight=%v", inflight), func(t *testing.T) {
			led := journal.NewLedger(journal.LedgerConfig{})
			if inflight {
				led.EnableInflight()
			}
			s := sharedLedgerServer(t, 4, 0, led, nil)
			id, delay, err := s.Open("v")
			if err != nil {
				t.Fatal(err)
			}
			s.Run(delay + 30)
			before, err := s.Stats(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ExportStream(id); err != nil {
				t.Fatal(err)
			}
			got, err := s.Stats(id)
			if inflight {
				if !errors.Is(err, ErrUnknownStream) {
					t.Fatalf("stats of an inflight export = %+v, %v; want ErrUnknownStream", got, err)
				}
				led.Abandon(0, int64(id), s.Round())
				if got, err = s.Stats(id); err != nil {
					t.Fatalf("stats after the migration was abandoned: %v", err)
				}
			} else if err != nil {
				t.Fatalf("stats after export: %v", err)
			}
			if got != before || got.Served != 30 || got.Done {
				t.Errorf("stats after export = %+v, want the %+v of the export round", got, before)
			}
		})
	}

	// A shed stream that migrated lives on under the destination's
	// (shard, id): the source no longer knows it, and the destination
	// answers with the lifetime totals.
	t.Run("shed-then-migrated", func(t *testing.T) {
		led := journal.NewLedger(journal.LedgerConfig{})
		led.EnableInflight()
		// Shard 0's disks run three times slower from round 3 on: N_max 26 → 6.
		a := sharedLedgerServer(t, 2, 0, led, &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 3, Factor: 3},
		}})
		b := sharedLedgerServer(t, 2, 1, led, nil)
		for range 30 {
			if _, _, err := a.Open("v"); err != nil {
				t.Fatal(err)
			}
		}
		var rep RoundReport
		for r := 0; len(rep.Evicted) == 0; r++ {
			if r == 10 {
				t.Fatal("the slowed server shed nothing")
			}
			rep = a.Step()
		}
		old, state := rep.Evicted[0].ID, rep.Evicted[0].State
		nid, _, err := b.ImportStream(state)
		if err != nil {
			t.Fatal(err)
		}
		led.Migrated(0, int64(old), 1, int64(nid))
		if st, err := a.Stats(old); !errors.Is(err, ErrUnknownStream) {
			t.Errorf("source Stats(%d) after the migration = %+v, %v; want ErrUnknownStream", old, st, err)
		}
		b.Run(5)
		lifetime, err := b.Stats(nid)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Close(nid); err != nil {
			t.Fatal(err)
		}
		got, err := b.Stats(nid)
		if err != nil {
			t.Fatalf("destination Stats(%d) after close: %v", nid, err)
		}
		if got != lifetime || got.Served <= state.Served || got.StartupDelay < state.Delay {
			t.Errorf("destination stats after close = %+v, want the lifetime %+v past the shed's served %d, delay %d",
				got, lifetime, state.Served, state.Delay)
		}
	})

	// A server handed no ledger owns one, and records its streams there.
	t.Run("own-ledger", func(t *testing.T) {
		s := paperServer(t, 2)
		if err := s.AddSyntheticObject("v", 100); err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if _, _, err := s.Open("v"); err != nil {
				t.Fatal(err)
			}
		}
		if rep := s.ledger.Report(); rep.ActiveStreams != 3 || len(rep.Active) != 3 {
			t.Errorf("own ledger lists %d active streams (%d records), want 3", rep.ActiveStreams, len(rep.Active))
		}
	})
}

// TestStatsKeysByShard: two shards sharing one ledger each issue id 1 and
// close it after different service. Each Stats(1) answers its own shard's
// stream, though the other shard's record is the newer one.
func TestStatsKeysByShard(t *testing.T) {
	led := journal.NewLedger(journal.LedgerConfig{})
	servers := []*Server{sharedLedgerServer(t, 2, 0, led, nil), sharedLedgerServer(t, 2, 1, led, nil)}
	want := make([]StreamStats, len(servers))
	for i, s := range servers {
		id, delay, err := s.Open("v")
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 {
			t.Fatalf("shard %d issued id %d, want 1", i, id)
		}
		s.Run(delay + 5 + 10*i)
		if want[i], err = s.Stats(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] {
		t.Fatalf("both shards' streams had %+v: the check needs different service", want[0])
	}
	for i, s := range servers {
		if got, err := s.Stats(1); err != nil || got != want[i] {
			t.Errorf("shard %d Stats(1) = %+v, %v; want its own %+v", i, got, err, want[i])
		}
	}
}
