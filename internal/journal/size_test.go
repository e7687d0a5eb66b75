package journal_test

import (
	"runtime"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/workload"
)

// eventBytes and recordBytes are what the journal may keep of one event
// and the ledger of one stream's record.
const (
	eventBytes  = 80
	recordBytes = 104
)

// retainedBy is the live heap that keeping x costs: live bytes with x
// reachable, less live bytes once drop has released it. Each reading
// follows two collections, so what the first one queued for finalizers is
// gone from both.
func retainedBy(x any, drop func()) int64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(x)
	drop()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&without)
	return int64(with.HeapAlloc) - int64(without.HeapAlloc)
}

// TestRetainedBytesPerEvent holds a full journal ring, lapped by events of
// every kind as their emitters fill them, to eventBytes an event. The
// events' strings are constants, so what is retained is the ring itself
// and the journal's header.
func TestRetainedBytesPerEvent(t *testing.T) {
	j := journal.New(journal.Config{})
	kinds := emittedEvents()
	for i := 0; i < 2*journal.DefaultCapacity; i++ {
		e := kinds[i%len(kinds)]
		e.Round = i
		j.Append(&e)
	}
	events := int64(j.Stats().Retained)
	retained := retainedBy(j, func() { j = nil })
	t.Logf("retained %d B for %d events: %.2f B an event", retained, events, float64(retained)/float64(events))
	if limit := eventBytes*events + 1024; retained > limit {
		t.Errorf("the journal retains %d B, more than %d B: %.2f B an event, want %d",
			retained, limit, float64(retained)/float64(events), eventBytes)
	}
}

// TestRetainedBytesPerRecord holds a full ledger, its retired ring lapped
// by a one-disk server's one-fragment streams, to recordBytes a record it
// keeps, retired or active, the ring's slot included. Every stream opens
// and retires in the same round, so measured after a round's opens the
// ledger holds no record beyond those. The ledger's maps, tallies and
// header are allowed 4 KiB beside.
func TestRetainedBytesPerRecord(t *testing.T) {
	const perRound, rounds = 20, 300
	l := journal.NewLedger(journal.LedgerConfig{})
	s, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Ledger:      l,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("clip", 1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if _, _, err := s.Open("clip"); err != nil {
				t.Fatal(err)
			}
		}
		if r < rounds-1 {
			s.Step()
		}
	}
	s = nil
	rep := l.Report()
	if rep.Retained != journal.DefaultRetired || rep.ActiveStreams != perRound {
		t.Fatalf("ledger holds %d retired and %d active records, want %d and %d",
			rep.Retained, rep.ActiveStreams, journal.DefaultRetired, perRound)
	}
	records := int64(rep.Retained + rep.ActiveStreams)
	rep = journal.Report{}
	retained := retainedBy(l, func() { l = nil })
	t.Logf("retained %d B for %d records: %.2f B a record", retained, records, float64(retained)/float64(records))
	if limit := recordBytes*records + 4096; retained > limit {
		t.Errorf("the ledger retains %d B, more than %d B: %.2f B a record, want %d",
			retained, limit, float64(retained)/float64(records), recordBytes)
	}
}
