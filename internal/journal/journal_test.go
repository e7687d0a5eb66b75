package journal

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mzqos/internal/telemetry"
)

func TestAppendSequencesAndWraps(t *testing.T) {
	j := New(Config{Capacity: 4})
	for i := 0; i < 6; i++ {
		seq := j.Append(&Event{Round: i, Kind: KindAdmit, Disk: -1, From: -1, To: -1})
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	st := j.Stats()
	if st.Capacity != 4 || st.Retained != 4 || st.HeadSeq != 6 || st.Dropped != 2 {
		t.Fatalf("stats after wrap: %+v", st)
	}
	evs := j.Events(MatchAll())
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d: seq %d, want %d (oldest first)", i, e.Seq, i+3)
		}
	}
}

func TestNilJournalIsDisabled(t *testing.T) {
	var j *Journal
	if seq := j.Append(&Event{Kind: KindGlitch}); seq != 0 {
		t.Fatalf("nil append returned seq %d", seq)
	}
	if evs := j.Events(MatchAll()); evs != nil {
		t.Fatalf("nil Events returned %v", evs)
	}
	if st := j.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats returned %+v", st)
	}
}

func TestFilterDimensions(t *testing.T) {
	j := New(Config{Capacity: 32})
	j.Append(&Event{Kind: KindAdmit, Shard: 0, Disk: -1, Stream: 1, Object: "a", From: -1, To: -1})
	j.Append(&Event{Kind: KindAdmit, Shard: 1, Disk: -1, Stream: 2, Object: "b", From: -1, To: -1})
	j.Append(&Event{Kind: KindEvict, Shard: 1, Disk: -1, Stream: 2, Object: "b", From: -1, To: -1})
	j.Append(&Event{Kind: KindDegrade, Shard: 0, Disk: 2, From: 5, To: 3})

	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", MatchAll(), 4},
		{"kind", Filter{Shard: -1, Disk: -1, Kinds: []Kind{KindAdmit}}, 2},
		{"two kinds", Filter{Shard: -1, Disk: -1, Kinds: []Kind{KindAdmit, KindEvict}}, 3},
		{"shard", Filter{Shard: 1, Disk: -1}, 2},
		{"shard zero", Filter{Shard: 0, Disk: -1}, 2},
		{"disk", Filter{Shard: -1, Disk: 2}, 1},
		{"stream", Filter{Shard: -1, Disk: -1, Stream: 2}, 2},
		{"object", Filter{Shard: -1, Disk: -1, Object: "a"}, 1},
		{"since", Filter{Shard: -1, Disk: -1, SinceSeq: 2}, 2},
		{"limit", Filter{Shard: -1, Disk: -1, Limit: 2}, 2},
		{"none", Filter{Shard: 7, Disk: -1}, 0},
	}
	for _, c := range cases {
		if got := len(j.Events(c.f)); got != c.want {
			t.Fatalf("%s: got %d events, want %d", c.name, got, c.want)
		}
	}
	// Limit keeps the newest events.
	evs := j.Events(Filter{Shard: -1, Disk: -1, Limit: 2})
	if evs[0].Seq != 3 || evs[1].Seq != 4 {
		t.Fatalf("limit kept seqs %d,%d; want 3,4", evs[0].Seq, evs[1].Seq)
	}
}

// eventsReference is Events as it read a ring of whole Events: every
// match copied out oldest first, then the newest Limit of them kept.
func eventsReference(retained []Event, f Filter) []Event {
	var out []Event
	for _, e := range retained {
		if e.Seq <= f.SinceSeq || f.Shard >= 0 && e.Shard != f.Shard || f.Disk >= 0 && e.Disk != f.Disk ||
			f.Stream != 0 && e.Stream != f.Stream || f.Object != "" && e.Object != f.Object ||
			len(f.Kinds) > 0 && !slices.Contains(f.Kinds, e.Kind) {
			continue
		}
		out = append(out, e)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// TestEventsMatchesReference reads random filters off random rings,
// lapped or not, and holds every result to eventsReference, and a read
// that matches anything to one allocation.
func TestEventsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	objects := []string{"", "a", "b"}
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + rng.IntN(40)
		j := New(Config{Capacity: capacity})
		var all []Event
		for n := rng.IntN(3 * capacity); len(all) < n; {
			e := Event{Round: len(all), Kind: Kind(rng.IntN(int(numKinds))), Shard: rng.IntN(3),
				Disk: rng.IntN(4) - 1, From: -1, To: -1, Stream: int64(rng.IntN(4)), Value: float64(rng.IntN(9))}
			switch {
			case e.Kind.slo():
				e.Target, e.Budget = objects[rng.IntN(3)], rng.Float64()
			case e.Kind == KindFreeze:
				e.TraceSeq = rng.Uint64()
			default:
				e.Object = objects[rng.IntN(3)]
			}
			e.Seq = j.Append(&e)
			all = append(all, e)
		}
		retained := all[max(0, len(all)-capacity):]
		for q := 0; q < 20; q++ {
			f := Filter{Shard: rng.IntN(4) - 1, Disk: rng.IntN(5) - 1, Stream: int64(rng.IntN(4)),
				Object: objects[rng.IntN(3)], Limit: rng.IntN(6), SinceSeq: uint64(rng.IntN(len(all) + 2))}
			if rng.IntN(2) == 0 {
				f = MatchAll()
				f.Limit = rng.IntN(3) * rng.IntN(capacity+2)
			}
			for k := rng.IntN(3); k > 0; k-- {
				f.Kinds = append(f.Kinds, Kind(rng.IntN(int(numKinds))))
			}
			got, want := j.Events(f), eventsReference(retained, f)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity %d, %d appended, filter %+v:\n got %+v\nwant %+v", capacity, len(all), f, got, want)
			}
			if len(want) > 0 {
				if allocs := testing.AllocsPerRun(10, func() { j.Events(f) }); allocs != 1 {
					t.Fatalf("filter %+v: Events allocates %v times, want 1", f, allocs)
				}
			}
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	names := Kinds()
	if len(names) != int(numKinds) {
		t.Fatalf("Kinds() returned %d names, want %d", len(names), numKinds)
	}
	for i, name := range names {
		k, ok := KindFromString(name)
		if !ok || k != Kind(i) {
			t.Fatalf("round trip %q: got %v (ok=%v)", name, k, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("bogus kind resolved")
	}
	var k Kind
	if err := k.UnmarshalText([]byte("migrate")); err != nil || k != KindMigrate {
		t.Fatalf("UnmarshalText: %v, %v", k, err)
	}
	if err := k.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("unknown kind unmarshalled")
	}
}

func TestEventJSONShape(t *testing.T) {
	e := Event{Seq: 9, Round: 3, Kind: KindMigrate, Shard: 1, Disk: -1, Stream: 7,
		Object: "clip", From: 0, To: 1, Detail: "migrate"}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "migrate" {
		t.Fatalf("kind serialized as %v", m["kind"])
	}
	// Disk/From/To always serialize (0 is a real id, -1 the sentinel).
	for _, key := range []string{"disk", "from", "to", "seq", "round", "shard"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("missing %q in %s", key, raw)
		}
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Fatalf("round trip: got %+v, want %+v", back, e)
	}
}

func TestJournalMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Config{Capacity: 2, Registry: reg})
	j.Append(&Event{Kind: KindAdmit})
	j.Append(&Event{Kind: KindAdmit})
	j.Append(&Event{Kind: KindGlitch}) // overwrites the oldest

	snap := reg.Snapshot()
	if v, _ := counterValue(snap, "mzqos_journal_events_total", telemetry.L("kind", "admit")); v != 2 {
		t.Fatalf("admit counter: got %d, want 2", v)
	}
	if v, _ := counterValue(snap, "mzqos_journal_events_total", telemetry.L("kind", "glitch")); v != 1 {
		t.Fatalf("glitch counter: got %d, want 1", v)
	}
	if v, _ := counterValue(snap, "mzqos_journal_dropped_total"); v != 1 {
		t.Fatalf("dropped counter: got %d, want 1", v)
	}
	if v, _ := gaugeValue(snap, "mzqos_journal_head_seq"); v != 3 {
		t.Fatalf("head seq gauge: got %v, want 3", v)
	}
}

// TestHeadSeqGaugeNeverDecreases: shards append in parallel, so the
// head-seq gauge must be published in seq order — a scraper that sees it
// fall reads a timeline moving backwards. A reader watches it while four
// appenders race; it never decreases and ends at the journal's head.
func TestHeadSeqGaugeNeverDecreases(t *testing.T) {
	const appenders, each = 4, 20000
	reg := telemetry.NewRegistry()
	j := New(Config{Capacity: 64, Registry: reg})
	head := reg.Gauge("mzqos_journal_head_seq", "")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fell := make(chan string, 1)
	go func() {
		defer close(fell)
		last := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := head.Value()
			if v < last {
				fell <- fmt.Sprintf("head seq gauge fell from %v to %v", last, v)
				return
			}
			last = v
		}
	}()
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			e := Event{Kind: KindGlitch, Shard: shard, Disk: -1, From: -1, To: -1}
			for i := 0; i < each; i++ {
				e.Round = i
				j.Append(&e)
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	if msg, ok := <-fell; ok {
		t.Fatal(msg)
	}
	if got, want := head.Value(), float64(j.Stats().HeadSeq); got != want || want != appenders*each {
		t.Fatalf("head seq gauge ends at %v, journal head %v, want both %d", got, want, appenders*each)
	}
}

func TestAppendAllocsZero(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Config{Capacity: 1024, Registry: reg})
	e := Event{Round: 1, Kind: KindGlitch, Shard: 0, Disk: -1, From: -1, To: -1, Value: 3}
	if allocs := testing.AllocsPerRun(1000, func() { j.Append(&e) }); allocs != 0 {
		t.Fatalf("Append allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkAppend measures one ring append at wrap-around steady state —
// the call every emitter on the round path makes (admit, glitch, evict,
// SLO transitions). The registry keeps it honest: production appends also
// pay the per-kind counter and head-seq gauge updates.
func BenchmarkAppend(b *testing.B) {
	j := New(Config{Capacity: 4096, Registry: telemetry.NewRegistry()})
	e := Event{Kind: KindGlitch, Disk: -1, From: -1, To: -1, Value: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Round = i
		j.Append(&e)
	}
}

// counterValue reads the counter series name with exactly labels out of a
// snapshot.
func counterValue(s telemetry.Snapshot, name string, labels ...telemetry.Label) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && slices.Equal(c.Labels, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// gaugeValue reads the gauge series name with exactly labels out of a
// snapshot.
func gaugeValue(s telemetry.Snapshot, name string, labels ...telemetry.Label) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && slices.Equal(g.Labels, labels) {
			return g.Value, true
		}
	}
	return 0, false
}
