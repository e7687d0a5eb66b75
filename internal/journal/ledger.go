// The QoS ledger: one lifetime record per stream, promised vs delivered.
//
// At admit the server quotes a stochastic guarantee — P[T_N > t] ≤ b_late
// and the §3.3 per-stream glitch bound, with the binding constraint (disk,
// k = N_max+1, bound family, θ) from the admission explanation. The ledger
// freezes that quote and, when the stream retires, pairs it with what was
// actually delivered: measured startup delay, served fragments, glitch
// count, and — after PR 8 — how many times the stream migrated and which
// shards it visited. Migration makes this non-trivial: an exported stream
// is re-admitted under a fresh engine-local id on another shard, so the
// ledger threads a three-state lifecycle (active → inflight → retired,
// with Migrated merging an inflight record into its successor) to keep
// exactly one record, and exactly one glitch total, per logical stream.
package journal

import (
	"cmp"
	"slices"
	"sync"

	"mzqos/internal/ring"
	"mzqos/internal/telemetry"
)

// Promise is the guarantee quoted at admission time.
type Promise struct {
	// Object is the catalog entry; Shard the admitting shard; Round the
	// admission round; SlotDelay the §2.3 startup delay granted (rounds).
	Object    string `json:"object"`
	Shard     int    `json:"shard"`
	Round     int    `json:"round"`
	SlotDelay int    `json:"slot_delay"`
	// Quote is the half the admission limits in force set.
	Quote
}

// Quote is the half of a promise the admission limits set, the same for
// every stream admitted under them. A server builds one each time it puts
// limits in force and never writes it after: the ledger's records point
// to it instead of copying it.
type Quote struct {
	// BoundLate and BoundGlitch are the analytic tail bounds in force
	// when the stream was admitted (b_late at N_max; eq. 3.3.3).
	BoundLate   float64 `json:"b_late"`
	BoundGlitch float64 `json:"b_glitch"`
	// BindingDisk/BindingK/BindingBound/Theta describe the binding
	// admission constraint (from the explanation of the disk that set
	// N_max): the load level k and Chernoff parameter θ at which the
	// named bound family went tight.
	BindingDisk  int     `json:"binding_disk"`
	BindingK     int     `json:"binding_k"`
	BindingBound string  `json:"binding_bound,omitempty"`
	Theta        float64 `json:"theta,omitempty"`
}

// Delivered is what the stream actually experienced.
type Delivered struct {
	// StartupDelay is the realized §2.3 delay in rounds (cumulative
	// across migrations); Served the fragments delivered; Glitches the
	// lifetime late/lost fragment total.
	StartupDelay int `json:"startup_delay"`
	Served       int `json:"served"`
	Glitches     int `json:"glitches"`
	// Done marks natural completion; Evicted a degraded-mode shed;
	// Abandoned a migration that never found a new home.
	Done      bool `json:"done"`
	Evicted   bool `json:"evicted,omitempty"`
	Abandoned bool `json:"abandoned,omitempty"`
}

// Record is one stream's lifetime ledger entry.
type Record struct {
	// Stream is the newest engine-local id (ids change across
	// migrations); Shard the shard currently (or last) hosting it.
	Stream int64 `json:"stream"`
	Shard  int   `json:"shard"`
	// Object repeats the catalog name for convenience.
	Object string `json:"object"`
	// Promised is the quote frozen at first admission; Delivered the
	// realized service (interim for active streams, final once retired).
	Promised  Promise   `json:"promised"`
	Delivered Delivered `json:"delivered"`
	// Migrations counts successful cross-shard moves; ShardsVisited
	// lists every shard that hosted the stream, in order.
	Migrations    int   `json:"migrations"`
	ShardsVisited []int `json:"shards_visited"`
	// AdmitSeq cross-links to the journal's original admit event — the
	// one carrying the frozen promise; it survives migrations.
	AdmitSeq uint64 `json:"admit_seq,omitempty"`
	// RetiredRound is the round the record finalized, -1 while active or
	// inflight.
	RetiredRound int `json:"retired_round"`
}

// record is a Record as the ledger keeps it, 96 bytes. The object is
// stored once and the quote is the admitting limits' own. The admitting
// shard is the record's shard until the stream first migrates; from then
// on lineage lists every shard that hosted it, the admitting one first,
// so it counts the migrations too. The two delays are int32: a delay is
// at most D−1 rounds an admission.
type record struct {
	stream           int64
	object           string
	quote            *Quote
	lineage          *[]int // nil until the stream first migrates
	admitSeq         uint64
	round            int // admission round
	retiredRound     int
	served, glitches int
	shard            int32
	slotDelay        int32
	startupDelay     int32
	flags            uint8 // Delivered's Done, Evicted and Abandoned
}

// Delivered's flags, as a record keeps them.
const (
	flagDone uint8 = 1 << iota
	flagEvicted
	flagAbandoned
)

// deliver sets the record's delivered service to d.
func (rec *record) deliver(d Delivered) {
	rec.startupDelay, rec.served, rec.glitches = int32(d.StartupDelay), d.Served, d.Glitches
	rec.flags = 0
	if d.Done {
		rec.flags |= flagDone
	}
	if d.Evicted {
		rec.flags |= flagEvicted
	}
	if d.Abandoned {
		rec.flags |= flagAbandoned
	}
}

// delivered is the record's delivered service.
func (rec *record) delivered() Delivered {
	return Delivered{
		StartupDelay: int(rec.startupDelay), Served: rec.served, Glitches: rec.glitches,
		Done:      rec.flags&flagDone != 0,
		Evicted:   rec.flags&flagEvicted != 0,
		Abandoned: rec.flags&flagAbandoned != 0,
	}
}

// expand is the Record rec keeps, for a reader to keep: its lineage is
// copied.
func (rec *record) expand() Record {
	visited := []int{int(rec.shard)}
	if rec.lineage != nil {
		visited = slices.Clone(*rec.lineage)
	}
	return Record{
		Stream: rec.stream, Shard: int(rec.shard), Object: rec.object,
		Promised: Promise{
			Object: rec.object, Shard: visited[0], Round: rec.round, SlotDelay: int(rec.slotDelay),
			Quote: *rec.quote,
		},
		Delivered:     rec.delivered(),
		Migrations:    len(visited) - 1,
		ShardsVisited: visited,
		AdmitSeq:      rec.admitSeq,
		RetiredRound:  rec.retiredRound,
	}
}

// Retirement is one stream's end on its shard: its engine id and the
// service it was delivered.
type Retirement struct {
	ID        int64
	Delivered Delivered
}

// DefaultRetired is the retired-ring capacity when LedgerConfig leaves it 0.
const DefaultRetired = 4096

// LedgerConfig sizes a Ledger.
type LedgerConfig struct {
	// Retired bounds the retained finalized records (0 = DefaultRetired).
	// The delivered-tail tallies keep counting past the ring.
	Retired int
}

// Ledger tracks every stream's promised-vs-delivered record, and is the one
// store of a retired stream's delivered service: a server's Stats answers
// from it. Every server and coordinator has one, its own or its cluster's;
// the shards of a cluster share theirs, so its methods are safe for
// concurrent use from parallel shard Step loops. Records are recycled:
// finalization moves a record into the retired ring, and the record the
// ring evicts for it goes to a free list that the next Admit draws from,
// so no caller may hold a record: Report expands copies of them.
//
// A stream is attached to a shard under its engine id, which is only
// unique per shard, so each shard (a small non-negative index) has its own
// maps keyed by the id alone. Retire takes a shard's whole round at once,
// under one lock.
type Ledger struct {
	mu              sync.Mutex
	active          []map[int64]*record // per shard
	inflight        []map[int64]*record // per shard; suspended, awaiting re-admission
	inflightEnabled bool
	free            []*record // evicted from retired or discarded, for Admit to reuse

	// Pushed is the lifetime retirement count. A record the ring holds is
	// no live stream's: it leaves the ring only for the free list.
	retired ring.Buffer[*record]

	// Delivered-tail accumulators over every retirement (not just the
	// retained ring): startup delay in rounds and lifetime glitch count.
	delays   tally
	glitches tally
}

// tally is a fixed-bucket count of one delivered quantity with Prometheus
// "le" buckets: bucket i counts values v with bounds[i-1] < v ≤ bounds[i],
// and a last bucket counts v > bounds[len-1]. It is the ledger's own,
// written and read under l.mu, so a retirement adds to it with plain
// arithmetic and no atomics.
type tally struct {
	bounds []float64
	counts []int64 // len(bounds)+1; the last is the overflow
	count  int64
	sum    float64
}

func newTally(bounds ...float64) tally {
	return tally{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// observe counts v. The quantities are small counts, mostly at the first
// bounds, so a forward scan finds the bucket sooner than a binary search.
func (t *tally) observe(v int) {
	x := float64(v)
	i := 0
	for i < len(t.bounds) && x > t.bounds[i] {
		i++
	}
	t.counts[i]++
	t.count++
	t.sum += x
}

// NewLedger builds a Ledger.
func NewLedger(cfg LedgerConfig) *Ledger {
	capacity := cfg.Retired
	if capacity <= 0 {
		capacity = DefaultRetired
	}
	return &Ledger{
		retired:  ring.New[*record](capacity),
		delays:   newTally(0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128),
		glitches: newTally(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
	}
}

// EnableInflight switches suspended streams into the inflight stage
// instead of finalizing immediately. The cluster coordinator enables it
// when migration is on, so an evicted or drained stream's record waits
// for its re-admission and the two halves merge into one lifetime entry.
func (l *Ledger) EnableInflight() {
	l.mu.Lock()
	l.inflightEnabled = true
	l.mu.Unlock()
}

// shardLocked returns shard's active and inflight maps, adding maps for
// every shard up to it on first use. Caller holds l.mu.
func (l *Ledger) shardLocked(shard int) (active, inflight map[int64]*record) {
	for len(l.active) <= shard {
		l.active = append(l.active, make(map[int64]*record))
		l.inflight = append(l.inflight, make(map[int64]*record))
	}
	return l.active[shard], l.inflight[shard]
}

// Admit opens a ledger record for a stream of object newly admitted on
// shard as id in round, granted slotDelay rounds of startup delay under
// the limits that quoted q. The record points to q, which no one may
// write after. admitSeq cross-links the journal event.
func (l *Ledger) Admit(shard int, id int64, object string, round, slotDelay int, q *Quote, admitSeq uint64) {
	l.mu.Lock()
	var rec *record
	if n := len(l.free); n > 0 {
		rec, l.free = l.free[n-1], l.free[:n-1]
	} else {
		rec = new(record)
	}
	*rec = record{
		stream: id, object: object, quote: q, admitSeq: admitSeq,
		round: round, retiredRound: -1,
		shard: int32(shard), slotDelay: int32(slotDelay),
	}
	active, _ := l.shardLocked(shard)
	active[id] = rec
	l.mu.Unlock()
}

// Suspend detaches a stream from its shard with the delivered stats as of
// the detach (eviction or export for migration). With the inflight stage
// enabled the record waits for Migrated/Abandon; otherwise it finalizes
// immediately at the given round.
func (l *Ledger) Suspend(shard int, id int64, d Delivered, round int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	active, inflight := l.shardLocked(shard)
	rec, ok := active[id]
	if !ok {
		return
	}
	delete(active, id)
	rec.deliver(d)
	if l.inflightEnabled {
		inflight[id] = rec
		return
	}
	l.finalizeLocked(rec, round)
}

// Retire finalizes the streams that ended on shard in round (completion or
// close), in the order rs lists them, which is the order the retired ring
// keeps. A stream already suspended is not re-finalized. The ledger keeps
// nothing of rs, so a caller can reuse it for its next round.
func (l *Ledger) Retire(shard, round int, rs []Retirement) {
	if len(rs) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	active, _ := l.shardLocked(shard)
	for i := range rs {
		r := &rs[i]
		rec, ok := active[r.ID]
		if !ok {
			continue
		}
		delete(active, r.ID)
		rec.deliver(r.Delivered)
		l.finalizeLocked(rec, round)
	}
}

// Migrated merges a suspended record into its re-admission: the stream
// suspended as (fromShard, fromID) is now active as (toShard, toID). The
// original promise and the shard lineage, allocated on the first move,
// carry over; the fresh Admit's record (created by the destination
// server) is replaced and freed.
func (l *Ledger) Migrated(fromShard int, fromID int64, toShard int, toID int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, fromInflight := l.shardLocked(fromShard)
	toActive, _ := l.shardLocked(toShard)
	old, okOld := fromInflight[fromID]
	cur, okCur := toActive[toID]
	if !okOld || !okCur {
		// Without both halves there is nothing to merge; keep whichever
		// exists (the destination Admit already opened a fresh record).
		return
	}
	delete(fromInflight, fromID)
	if old.lineage == nil {
		lineage := make([]int, 1, 2)
		lineage[0] = int(old.shard)
		old.lineage = &lineage
	}
	*old.lineage = append(*old.lineage, toShard)
	old.stream, old.shard = toID, int32(toShard)
	// old.admitSeq keeps the first admission's seq: that admit event is
	// the one carrying the frozen promise, and re-admit events are
	// reachable from the timeline by stream id. The destination's fresh
	// record (and its re-admit seq) is discarded with the merge.
	// The destination server re-imports the carried state, so its stream
	// resumes with the lifetime served/glitch totals; keep the merged
	// record's delivered view interim until retirement.
	toActive[toID] = old
	l.free = append(l.free, cur)
}

// Abandon finalizes a suspended stream whose migration never landed
// (export failed or no sibling had capacity after the retry budget).
func (l *Ledger) Abandon(shard int, id int64, round int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	active, inflight := l.shardLocked(shard)
	rec, ok := inflight[id]
	if !ok {
		// An export that failed before Suspend leaves the record active.
		if rec, ok = active[id]; !ok {
			return
		}
		delete(active, id)
	} else {
		delete(inflight, id)
	}
	rec.flags |= flagAbandoned
	l.finalizeLocked(rec, round)
}

// finalizeLocked stamps the record, moves it into the retired ring, frees
// the record the ring evicts for it, and feeds the delivered-tail tallies.
// Caller holds l.mu.
func (l *Ledger) finalizeLocked(rec *record, round int) {
	rec.retiredRound = round
	slot := l.retired.Next()
	if *slot != nil {
		l.free = append(l.free, *slot)
	}
	*slot = rec
	l.delays.observe(int(rec.startupDelay))
	l.glitches.observe(rec.glitches)
}

// Retired returns the newest finalized record of the stream shard knew as
// id: its object and the service it was delivered. It scans the retained
// ring, newest first, and allocates nothing.
func (l *Ledger) Retired(shard int, id int64) (object string, d Delivered, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.retired.Len() - 1; i >= 0; i-- {
		if rec := *l.retired.At(i); rec.stream == id && int(rec.shard) == shard {
			return rec.object, rec.delivered(), true
		}
	}
	return "", Delivered{}, false
}

// TailSummary is a fleet-level delivered-tail readout: quantiles of one
// delivered quantity over every retired stream.
type TailSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// tailOf summarizes a tally; the quantiles read it through the telemetry
// histogram's own bucket-bound rule. Caller holds l.mu.
func tailOf(ta *tally) TailSummary {
	v := telemetry.HistogramValues{Bounds: ta.bounds, Counts: ta.counts, Count: ta.count, Sum: ta.sum}
	t := TailSummary{Count: v.Count}
	if v.Count > 0 {
		t.Mean = v.Sum / float64(v.Count)
	}
	t.P50 = v.Quantile(0.5)
	t.P90 = v.Quantile(0.9)
	t.P99 = v.Quantile(0.99)
	t.P999 = v.Quantile(0.999)
	return t
}

// Report is the /streams payload.
type Report struct {
	// ActiveStreams / InflightMigrations / RetiredTotal count the three
	// lifecycle stages; Retained is how many retired records the ring
	// still holds.
	ActiveStreams      int   `json:"active_streams"`
	InflightMigrations int   `json:"inflight_migrations"`
	RetiredTotal       int64 `json:"retired_total"`
	Retained           int   `json:"retained"`
	// StartupDelayRounds and GlitchesPerStream are fleet-level delivered
	// tails over every retirement (quantiles report the tally's bucket
	// bound covering the target rank).
	StartupDelayRounds TailSummary `json:"startup_delay_rounds"`
	GlitchesPerStream  TailSummary `json:"glitches_per_stream"`
	// Retired lists the retained finalized records, oldest first; Active
	// snapshots the in-flight promises, ordered by (shard, stream).
	Retired []Record `json:"retired"`
	Active  []Record `json:"active"`
}

// Report snapshots the ledger.
func (l *Ledger) Report() Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := Report{
		RetiredTotal:       int64(l.retired.Pushed()),
		Retained:           l.retired.Len(),
		StartupDelayRounds: tailOf(&l.delays),
		GlitchesPerStream:  tailOf(&l.glitches),
	}
	for shard := range l.active {
		rep.ActiveStreams += len(l.active[shard])
		rep.InflightMigrations += len(l.inflight[shard])
	}
	rep.Retired = make([]Record, 0, l.retired.Len())
	for i, n := 0, l.retired.Len(); i < n; i++ {
		rep.Retired = append(rep.Retired, (*l.retired.At(i)).expand())
	}
	rep.Active = make([]Record, 0, rep.ActiveStreams)
	for _, active := range l.active { // shard order
		from := len(rep.Active)
		for _, rec := range active {
			rep.Active = append(rep.Active, rec.expand())
		}
		slices.SortFunc(rep.Active[from:], func(a, b Record) int { return cmp.Compare(a.Stream, b.Stream) })
	}
	return rep
}
