package journal

import (
	"fmt"
	"reflect"
	"testing"

	"mzqos/internal/telemetry"
)

// quote is the limits' half of every promise these tests admit under;
// admissions are at round 0 with one round of slotting delay.
var quote = &Quote{BoundLate: 1e-3, BoundGlitch: 1e-4, BindingDisk: 0, BindingK: 5, BindingBound: "b_late", Theta: 0.7}

func TestLedgerAdmitRetire(t *testing.T) {
	l := NewLedger(LedgerConfig{})
	l.Admit(0, 1, "clip-a", 0, 1, quote, 11)
	rep := l.Report()
	if len(rep.Active) != 1 || rep.Active[0].Stream != 1 || rep.Active[0].RetiredRound != -1 || rep.Active[0].AdmitSeq != 11 {
		t.Fatalf("active records: %+v", rep.Active)
	}
	l.Retire(0, 50, []Retirement{{ID: 1, Delivered: Delivered{StartupDelay: 2, Served: 40, Glitches: 3, Done: true}}})
	rep = l.Report()
	if len(rep.Active) != 0 {
		t.Fatalf("record still tracked after retire: %+v", rep.Active)
	}
	if rep.RetiredTotal != 1 || len(rep.Retired) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	got := rep.Retired[0]
	if got.RetiredRound != 50 || !got.Delivered.Done || got.Delivered.Glitches != 3 {
		t.Fatalf("retired record: %+v", got)
	}
	if got.Promised.BindingK != 5 || got.Promised.BoundLate != 1e-3 {
		t.Fatalf("promise not frozen: %+v", got.Promised)
	}
	if rep.GlitchesPerStream.Count != 1 || rep.StartupDelayRounds.Count != 1 {
		t.Fatalf("tails not fed: %+v", rep)
	}
}

func TestLedgerSuspendWithoutInflightFinalizes(t *testing.T) {
	l := NewLedger(LedgerConfig{})
	l.Admit(0, 1, "clip-a", 0, 1, quote, 1)
	l.Suspend(0, 1, Delivered{Served: 10, Glitches: 1, Evicted: true}, 20)
	rep := l.Report()
	if rep.RetiredTotal != 1 || rep.InflightMigrations != 0 {
		t.Fatalf("suspend without inflight: %+v", rep)
	}
	if !rep.Retired[0].Delivered.Evicted {
		t.Fatal("eviction flag lost")
	}
	// Retiring after the suspend must not double-finalize.
	l.Retire(0, 20, []Retirement{{ID: 1, Delivered: Delivered{Served: 10, Glitches: 1}}})
	if rep := l.Report(); rep.RetiredTotal != 1 {
		t.Fatalf("double finalize: %+v", rep)
	}
}

// TestLedgerRetireBatch: one Retire finalizes a round's streams in the
// order given, skips one already suspended, and leaves the rest alone.
func TestLedgerRetireBatch(t *testing.T) {
	l := NewLedger(LedgerConfig{})
	for id := int64(1); id <= 4; id++ {
		l.Admit(0, id, "clip", 0, 1, quote, uint64(id))
	}
	l.Suspend(0, 2, Delivered{Served: 1, Evicted: true}, 8)
	l.Retire(0, 9, []Retirement{
		{ID: 3, Delivered: Delivered{Served: 3, Done: true}},
		{ID: 2, Delivered: Delivered{Served: 2}},
		{ID: 1, Delivered: Delivered{Served: 1}},
	})
	rep := l.Report()
	var got []string
	for _, r := range rep.Retired {
		got = append(got, fmt.Sprintf("%d@%d served %d", r.Stream, r.RetiredRound, r.Delivered.Served))
	}
	if want := []string{"2@8 served 1", "3@9 served 3", "1@9 served 1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retired = %q, want %q", got, want)
	}
	if len(rep.Active) != 1 || rep.Active[0].Stream != 4 {
		t.Fatalf("active = %+v, want stream 4 alone", rep.Active)
	}
}

func TestLedgerMigrationMerge(t *testing.T) {
	l := NewLedger(LedgerConfig{})
	l.EnableInflight()
	l.Admit(0, 1, "clip-a", 0, 1, quote, 7)

	// Shard 0 exports the stream mid-flight.
	l.Suspend(0, 1, Delivered{StartupDelay: 1, Served: 15, Glitches: 2}, 30)
	if rep := l.Report(); rep.InflightMigrations != 1 || rep.RetiredTotal != 0 {
		t.Fatalf("after suspend: %+v", rep)
	}

	// Shard 2 re-admits it under a fresh id; the coordinator merges.
	l.Admit(2, 9, "clip-a", 0, 1, quote, 8)
	l.Migrated(0, 1, 2, 9)
	active := l.Report().Active
	if len(active) != 1 || active[0].Shard != 2 || active[0].Stream != 9 {
		t.Fatalf("merged record not active on destination: %+v", active)
	}
	rec := active[0]
	if rec.Migrations != 1 {
		t.Fatalf("migrations: got %d, want 1", rec.Migrations)
	}
	if len(rec.ShardsVisited) != 2 || rec.ShardsVisited[0] != 0 || rec.ShardsVisited[1] != 2 {
		t.Fatalf("lineage: %v", rec.ShardsVisited)
	}
	if rec.Promised.Shard != 0 {
		t.Fatalf("original promise lost: %+v", rec.Promised)
	}
	if rec.AdmitSeq != 7 {
		t.Fatalf("admit seq should stay cross-linked to the original admit event: %d", rec.AdmitSeq)
	}

	// Final retirement carries lifetime totals (the destination engine
	// imported served/glitch counts, so its retire stats are lifetime).
	l.Retire(2, 90, []Retirement{{ID: 9, Delivered: Delivered{StartupDelay: 3, Served: 60, Glitches: 4, Done: true}}})
	rep := l.Report()
	if rep.RetiredTotal != 1 || rep.InflightMigrations != 0 || rep.ActiveStreams != 0 {
		t.Fatalf("after retire: %+v", rep)
	}
	got := rep.Retired[0]
	if got.Delivered.Glitches != 4 || got.Migrations != 1 || got.Stream != 9 || got.Shard != 2 {
		t.Fatalf("final record: %+v", got)
	}
}

func TestLedgerAbandon(t *testing.T) {
	l := NewLedger(LedgerConfig{})
	l.EnableInflight()
	l.Admit(0, 1, "clip-a", 0, 1, quote, 1)
	l.Suspend(0, 1, Delivered{Served: 5, Glitches: 1, Evicted: true}, 10)
	l.Abandon(0, 1, 13)
	rep := l.Report()
	if rep.RetiredTotal != 1 || rep.InflightMigrations != 0 {
		t.Fatalf("abandon: %+v", rep)
	}
	got := rep.Retired[0]
	if !got.Delivered.Abandoned || !got.Delivered.Evicted || got.RetiredRound != 13 {
		t.Fatalf("abandoned record: %+v", got)
	}

	// Abandon of a still-active record (export failed before Suspend).
	l.Admit(1, 2, "clip-b", 0, 1, quote, 2)
	l.Abandon(1, 2, 14)
	if rep := l.Report(); rep.RetiredTotal != 2 || rep.ActiveStreams != 0 {
		t.Fatalf("active abandon: %+v", rep)
	}
}

// TestLedgerKeysByShardAndID: engine ids are only unique per shard, so one
// id attached on three shards names three streams. Retiring one leaves the
// others active under their own promises, and migrating one onto another's
// shard keeps the two records apart.
func TestLedgerKeysByShardAndID(t *testing.T) {
	l := NewLedger(LedgerConfig{})
	l.EnableInflight()
	for shard, object := range []string{"clip-a", "clip-b", "clip-c"} {
		l.Admit(shard, 5, object, 0, 1, quote, uint64(shard+1))
	}
	l.Retire(2, 10, []Retirement{{ID: 5, Delivered: Delivered{Served: 4, Done: true}}})

	type attached struct {
		shard   int
		stream  int64
		object  string
		seq     uint64
		visited string
	}
	summary := func(recs []Record) []attached {
		var out []attached
		for _, r := range recs {
			out = append(out, attached{r.Shard, r.Stream, r.Promised.Object, r.AdmitSeq, fmt.Sprint(r.ShardsVisited)})
		}
		return out
	}
	rep := l.Report()
	if got, want := summary(rep.Active), []attached{{0, 5, "clip-a", 1, "[0]"}, {1, 5, "clip-b", 2, "[1]"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after retiring (2, 5), active = %+v, want %+v", got, want)
	}
	if got, want := summary(rep.Retired), []attached{{2, 5, "clip-c", 3, "[2]"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retired = %+v, want %+v", got, want)
	}

	// (0, 5) moves to shard 1, where id 5 is already taken, as id 7.
	l.Suspend(0, 5, Delivered{Served: 2}, 11)
	l.Admit(1, 7, "clip-a", 0, 1, quote, 4)
	l.Migrated(0, 5, 1, 7)
	rep = l.Report()
	if got, want := summary(rep.Active), []attached{{1, 5, "clip-b", 2, "[1]"}, {1, 7, "clip-a", 1, "[0 1]"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after migrating (0, 5) to (1, 7), active = %+v, want %+v", got, want)
	}
	if rep.InflightMigrations != 0 || rep.RetiredTotal != 1 {
		t.Fatalf("after the migration: %d inflight, %d retired; want 0 and 1", rep.InflightMigrations, rep.RetiredTotal)
	}
}

func TestLedgerRetiredRingBounds(t *testing.T) {
	l := NewLedger(LedgerConfig{Retired: 2})
	for i := int64(1); i <= 3; i++ {
		l.Admit(0, i, "clip", 0, 1, quote, uint64(i))
		l.Retire(0, int(i)*10, []Retirement{{ID: i, Delivered: Delivered{Done: true}}})
	}
	rep := l.Report()
	if rep.RetiredTotal != 3 || rep.Retained != 2 || len(rep.Retired) != 2 {
		t.Fatalf("ring accounting: %+v", rep)
	}
	if rep.Retired[0].Stream != 2 || rep.Retired[1].Stream != 3 {
		t.Fatalf("oldest-first order: %+v", rep.Retired)
	}
	// The tallies keep counting past the ring.
	if rep.GlitchesPerStream.Count != 3 {
		t.Fatalf("tail count: got %d, want 3", rep.GlitchesPerStream.Count)
	}
}

// TestLedgerRecycledRecordsStayPut: what the retired ring retains is the
// record as it was at finalization, whatever later admissions and
// migrations do to the ledger's other records — even once the ring has
// lapped and every record has been through retirement more than once.
func TestLedgerRecycledRecordsStayPut(t *testing.T) {
	l := NewLedger(LedgerConfig{Retired: 3})
	l.EnableInflight()
	var next int64
	admit := func(shard int) int64 {
		next++
		l.Admit(shard, next, "clip", 0, 1, quote, uint64(next))
		return next
	}
	// open admits a stream on the first shard of lineage and migrates it
	// along the rest, returning its final id.
	open := func(lineage ...int) int64 {
		id := admit(lineage[0])
		for i, to := range lineage[1:] {
			l.Suspend(lineage[i], id, Delivered{Served: i + 1}, 0)
			toID := admit(to)
			l.Migrated(lineage[i], id, to, toID)
			id = toID
		}
		return id
	}
	lineages := [][]int{{0, 1}, {0, 1, 2}, {1, 2}, {2, 0, 1}}
	for k := 0; k < 7; k++ { // laps the three-slot ring twice
		lin := lineages[k%len(lineages)]
		l.Retire(lin[len(lin)-1], k, []Retirement{{ID: open(lin...), Delivered: Delivered{Served: 10 + k, Done: true}}})
	}
	snap := l.Report().Retired
	if len(snap) != 3 || snap[2].RetiredRound != 6 || len(snap[1].ShardsVisited) != 3 {
		t.Fatalf("retained after two laps: %+v", snap)
	}

	// Admissions and migrations elsewhere, and nothing retires.
	open(5, 6, 7)
	open(6, 5)
	last := open(7, 5, 6)
	if got := l.Report().Retired; !reflect.DeepEqual(got, snap) {
		t.Fatalf("retained records moved without a retirement:\n got %+v\nwant %+v", got, snap)
	}

	// One more retirement pushes out the oldest and nothing else.
	var rec Record
	for _, a := range l.Report().Active {
		if a.Shard == 6 && a.Stream == last {
			rec = a
		}
	}
	rec.Delivered = Delivered{Served: 99, Done: true}
	rec.RetiredRound = 7
	l.Retire(6, 7, []Retirement{{ID: last, Delivered: rec.Delivered}})
	want := append(snap[1:len(snap):len(snap)], rec)
	if got := l.Report().Retired; !reflect.DeepEqual(got, want) {
		t.Fatalf("after one more retirement:\n got %+v\nwant %+v", got, want)
	}
}

// TestLedgerTalliesMatchHistogram holds the delivered-tail tallies to the
// telemetry histogram's "le" buckets over values on, just below and just
// above every bound, and past the last: the same bucket counts, count and
// sum, so the same report.
func TestLedgerTalliesMatchHistogram(t *testing.T) {
	l := NewLedger(LedgerConfig{Retired: 4})
	delays, _ := telemetry.NewHistogram(l.delays.bounds)
	glitches, _ := telemetry.NewHistogram(l.glitches.bounds)
	var values []int
	for _, b := range l.glitches.bounds {
		values = append(values, int(b)-1, int(b), int(b)+1, int(b)) // a bound twice
	}
	values = append(values, 5000)
	for i, v := range values {
		id := int64(i + 1)
		delay := v % 200 // on and around the delay bounds too, and past 128
		l.Admit(0, id, "clip", 0, 1, quote, uint64(id))
		l.Retire(0, i, []Retirement{{ID: id, Delivered: Delivered{StartupDelay: delay, Glitches: v}}})
		delays.Observe(float64(delay))
		glitches.Observe(float64(v))
	}
	rep := l.Report()
	for _, c := range []struct {
		name string
		ta   *tally
		h    *telemetry.Histogram
		got  TailSummary
	}{
		{"startup delay", &l.delays, delays, rep.StartupDelayRounds},
		{"glitches", &l.glitches, glitches, rep.GlitchesPerStream},
	} {
		want := c.h.SnapshotValues()
		if !reflect.DeepEqual(c.ta.counts, want.Counts) || c.ta.count != want.Count || c.ta.sum != want.Sum {
			t.Errorf("%s tally: counts %v count %d sum %v; histogram: counts %v count %d sum %v",
				c.name, c.ta.counts, c.ta.count, c.ta.sum, want.Counts, want.Count, want.Sum)
		}
		wantTail := TailSummary{Count: want.Count, Mean: want.Sum / float64(want.Count),
			P50: want.Quantile(0.5), P90: want.Quantile(0.9), P99: want.Quantile(0.99), P999: want.Quantile(0.999)}
		if c.got != wantTail {
			t.Errorf("%s tail %+v, want %+v", c.name, c.got, wantTail)
		}
	}
}
