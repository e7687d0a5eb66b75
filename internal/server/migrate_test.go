package server

import (
	"errors"
	"fmt"
	"testing"
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
	// The withdrawn stream is gone, not finished.
	if _, err := s.Stats(id); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("stats after export err = %v, want ErrUnknownStream", err)
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
// lost — its resumable state stays buffered for exactly one export (the
// coordinator's migration pickup), then is surrendered.
func TestEvictedStreamStaysExportable(t *testing.T) {
	s := faultServer(t, 1, latencyPlan(50, 250), DegradeConfig{Enabled: true})
	var evicted []StreamID
	for r := 0; r < 100 && len(evicted) == 0; r++ {
		rep := s.Step()
		evicted = append(evicted, rep.Evicted...)
	}
	if len(evicted) == 0 {
		t.Fatal("degraded mode shed no streams inside the horizon")
	}
	for _, id := range evicted {
		state, err := s.ExportStream(id)
		if err != nil {
			t.Fatalf("export evicted %d: %v", id, err)
		}
		if state.Object == "" || state.Position <= 0 {
			t.Errorf("evicted state %+v, want mid-playback position", state)
		}
		if _, err := s.ExportStream(id); !errors.Is(err, ErrUnknownStream) {
			t.Errorf("second export of %d err = %v, want ErrUnknownStream (state surrendered)", id, err)
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
