// Package journal is the cluster-wide event timeline: a fixed-capacity
// ring of typed, sequence-numbered events covering everything that can
// change a stream's fate — admission and rejection, evictions, per-round
// glitch totals, degrade/restore/recalibrate limit changes, fault
// inject/clear edges, SLO alert transitions, flight-recorder freezes,
// and cross-shard migration/failover.
//
// The paper quotes its guarantee per stream (P[T_N > t] ≤ b_late and the
// §3.3 glitch bound), but after sharding and migration a stream's life is
// scattered across engines, alerts, and recorder snapshots. The journal
// is the single causally ordered record those surfaces share: every event
// carries one monotonically increasing sequence number, the round it
// happened in, and shard/disk/stream labels, so an incident reads as one
// ordered narrative (served by mzserver's /timeline) instead of four
// disjoint endpoints.
//
// Append is zero-allocation in steady state: the emitter fills an Event
// in place and hands Append a pointer to it, and Append copies it once,
// into its 80-byte slot of a preallocated ring, under one short mutex.
// The slot keeps no sequence number (it follows from the ring position),
// narrows the labels and the transition pair, and shares one field
// between Object and Target and one between Budget and TraceSeq, which no
// kind fills both of; Events expands slots back into Events. The metric
// updates (mzqos_journal_events_total{kind}, mzqos_journal_dropped_total,
// mzqos_journal_head_seq) hit pre-captured atomic series. A nil *Journal
// is a disabled journal: every method is a no-op, so emitters need no
// guards.
package journal

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mzqos/internal/ring"
	"mzqos/internal/telemetry"
)

// Kind is the event type. The numeric values index the per-kind metric
// array and never appear on the wire — JSON uses the names.
type Kind uint8

// Event kinds, grouped by emitter.
const (
	// KindAdmit records a stream admitted (Open or ImportStream); Value is
	// the slotting delay in rounds the admitting engine charged, Detail
	// "import" for migration re-admissions.
	KindAdmit Kind = iota
	// KindReject records a stream turned away; Detail is the rejection
	// reason (overload, classes_full), Value the N_max in force.
	KindReject
	// KindEvict records a stream shed by the degraded-mode controller.
	KindEvict
	// KindGlitch records a round that glitched: Value is the round's late
	// or lost fragment count (one event per glitching round, not per
	// fragment — the per-stream totals live in the QoS ledger).
	KindGlitch
	// KindDegrade records degraded admission limits applied: From/To are
	// the old and new N_max, Detail "disk_failed" when a full failure
	// forced the limit to zero.
	KindDegrade
	// KindRestore records healthy limits restored (From/To as above).
	KindRestore
	// KindRecalibrate records a §5 model refit (From/To old/new N_max).
	KindRecalibrate
	// KindFaultInject / KindFaultClear are the edges of a disk's fault
	// timeline; Detail names the active effect kinds.
	KindFaultInject
	KindFaultClear
	// SLO alert transitions; Target names the audited bound, Value the
	// fast-window measurement, Budget the analytic bound, From/To the
	// state ordinals, Detail each window's violations of its population
	// against its critical count. A firing's Detail adds the binding
	// admission constraint (k, bound family, disk).
	KindSLOPending
	KindSLOFiring
	KindSLOResolved
	// KindFreeze records a flight-recorder latch; TraceSeq cross-links to
	// the frozen snapshot's span sequence, Detail is the trigger reason.
	KindFreeze
	// KindMigrate records a stream re-admitted on a sibling: From/To are
	// the source and destination shards, Detail the migration kind
	// ("migrate" for evictions, "failover" for drained shards).
	KindMigrate
	// KindFailover records a stream drained off a failed shard into the
	// migration queue (From is the failed shard; the later KindMigrate
	// event names where it landed).
	KindFailover

	numKinds
)

// kindNames are the wire names, index-aligned with the Kind constants.
var kindNames = [numKinds]string{
	"admit", "reject", "evict", "glitch", "degrade", "restore",
	"recalibrate", "fault_inject", "fault_clear", "slo_pending",
	"slo_firing", "slo_resolved", "freeze", "migrate", "failover",
}

// String names the kind (e.g. "fault_inject").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText renders the kind as its name in JSON payloads.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	kk, ok := KindFromString(string(b))
	if !ok {
		return fmt.Errorf("journal: unknown event kind %q", b)
	}
	*k = kk
	return nil
}

// KindFromString resolves a wire name to its Kind.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// slo reports whether k is an SLO alert transition, the kinds that name a
// Target instead of an Object.
func (k Kind) slo() bool { return k >= KindSLOPending && k <= KindSLOResolved }

// Kinds returns every event kind name in declaration order (the /timeline
// filter vocabulary).
func Kinds() []string { return append([]string(nil), kindNames[:]...) }

// Event is one journal entry. Disk, From, and To use -1 for "not
// applicable" (0 is a valid disk and shard id); Stream 0 means no stream
// is involved. The From/To pair is per-kind: source/destination shards
// for migrations, old/new N_max for limit changes, and alert-state
// ordinals for SLO transitions.
type Event struct {
	// Seq is the cluster-wide monotonic sequence number assigned by
	// Append (1-based; 0 means "never appended").
	Seq uint64 `json:"seq"`
	// Round is the emitting component's round index at append time.
	Round int `json:"round"`
	// Kind is the event type (serialized as its name).
	Kind Kind `json:"kind"`
	// Shard labels the emitting shard (0 for a standalone server).
	Shard int `json:"shard"`
	// Disk is the disk involved, or -1.
	Disk int `json:"disk"`
	// Stream is the engine-local stream id, or 0.
	Stream int64 `json:"stream,omitempty"`
	// Object names the catalog entry involved, when any.
	Object string `json:"object,omitempty"`
	// From and To carry the per-kind transition pair (see above), -1 when
	// not applicable.
	From int `json:"from"`
	To   int `json:"to"`
	// Target names the SLO target for slo_* events.
	Target string `json:"target,omitempty"`
	// Value and Budget carry per-kind numbers (glitch count, measured
	// rate vs analytic bound).
	Value  float64 `json:"value,omitempty"`
	Budget float64 `json:"budget,omitempty"`
	// TraceSeq cross-links freeze events to the flight recorder's span
	// sequence at latch time.
	TraceSeq uint64 `json:"trace_seq,omitempty"`
	// Detail is a short free-form annotation (reject reason, fault kinds,
	// freeze trigger, binding constraint).
	Detail string `json:"detail,omitempty"`
}

// MaxDisks is the most disks a journaled server may have: a slot keeps an
// event's disk in 16 bits.
const MaxDisks = math.MaxInt16 + 1

// slot is an Event as the ring keeps it, 80 bytes. The seq is not kept:
// the ring's i-th retained slot holds event Pushed − Len + i + 1. Shard,
// From and To are int32 and Disk int16. name is an slo_* event's Target
// and every other event's Object, aux a freeze's TraceSeq and every other
// event's Budget bits: no kind fills both of a pair.
type slot struct {
	round           int
	stream          int64
	value           float64
	aux             uint64
	name            string
	detail          string
	shard, from, to int32
	disk            int16
	kind            Kind
}

// set stores e in the slot, in one copy.
func (sl *slot) set(e *Event) {
	name, aux := e.Object, math.Float64bits(e.Budget)
	if e.Kind.slo() {
		name = e.Target
	} else if e.Kind == KindFreeze {
		aux = e.TraceSeq
	}
	*sl = slot{
		round: e.Round, stream: e.Stream, value: e.Value, aux: aux,
		name: name, detail: e.Detail,
		shard: int32(e.Shard), from: int32(e.From), to: int32(e.To),
		disk: int16(e.Disk), kind: e.Kind,
	}
}

// object is the slot's Object: its name, unless the name is a Target.
func (sl *slot) object() string {
	if sl.kind.slo() {
		return ""
	}
	return sl.name
}

// event expands the slot into the Event Append was handed, numbered seq.
func (sl *slot) event(seq uint64) Event {
	e := Event{
		Seq: seq, Round: sl.round, Kind: sl.kind,
		Shard: int(sl.shard), Disk: int(sl.disk), Stream: sl.stream,
		Object: sl.object(), From: int(sl.from), To: int(sl.to),
		Value: sl.value, Detail: sl.detail,
	}
	switch {
	case sl.kind.slo():
		e.Target, e.Budget = sl.name, math.Float64frombits(sl.aux)
	case sl.kind == KindFreeze:
		e.TraceSeq = sl.aux
	default:
		e.Budget = math.Float64frombits(sl.aux)
	}
	return e
}

// DefaultCapacity is the ring size used when Config.Capacity is zero.
const DefaultCapacity = 8192

// Config sizes a Journal.
type Config struct {
	// Capacity is the ring size in events (0 = DefaultCapacity). Once
	// full, appends overwrite the oldest event (counted dropped).
	Capacity int
	// Registry optionally receives the mzqos_journal_* metric set.
	Registry *telemetry.Registry
}

// Journal is the fixed-capacity event ring. Append is safe for
// concurrent use from every emitter (shard Step loops run in parallel);
// Events and Stats may be called concurrently with appends.
type Journal struct {
	mu     sync.Mutex
	events ring.Buffer[slot] // Pushed is the last assigned sequence number

	// Metric series pre-captured at construction so Append does no
	// registry lookups (and no allocation). All nil when no Registry.
	kindTotal [numKinds]*telemetry.Counter
	dropTotal *telemetry.Counter
	headSeq   *telemetry.Gauge
}

// New builds a Journal.
func New(cfg Config) *Journal {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	j := &Journal{events: ring.New[slot](capacity)}
	if reg := cfg.Registry; reg != nil {
		for k := Kind(0); k < numKinds; k++ {
			j.kindTotal[k] = reg.Counter("mzqos_journal_events_total",
				"Journal events appended, by event kind.",
				telemetry.L("kind", k.String()))
		}
		j.dropTotal = reg.Counter("mzqos_journal_dropped_total",
			"Journal events overwritten after aging out of the ring.")
		j.headSeq = reg.Gauge("mzqos_journal_head_seq",
			"Sequence number of the newest journal event.")
	}
	return j
}

// Append copies *e into the ring under the next sequence number and
// returns that number; e.Seq is not read, and *e itself is left as it
// was, so an emitter may reuse it. Zero allocations in steady state; a
// nil journal returns 0 and records nothing. The head-seq gauge is set
// under the ring's lock, so appenders racing from parallel shards publish
// their seqs in order and the gauge never goes backwards.
func (j *Journal) Append(e *Event) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	overwrote := j.events.Len() == j.events.Cap()
	j.events.Next().set(e)
	seq := j.events.Pushed()
	if j.headSeq != nil {
		j.headSeq.Set(float64(seq))
	}
	j.mu.Unlock()
	if int(e.Kind) < len(j.kindTotal) {
		if c := j.kindTotal[e.Kind]; c != nil {
			c.Inc()
		}
	}
	if overwrote && j.dropTotal != nil {
		j.dropTotal.Inc()
	}
	return seq
}

// Filter selects events for Events. The zero value of Shard and Disk is
// a real id, so construct filters from MatchAll (or set them to -1) when
// those dimensions should stay open.
type Filter struct {
	// SinceSeq selects events with Seq strictly greater (0 = from the
	// oldest retained).
	SinceSeq uint64
	// Kinds restricts to the listed kinds (empty = all).
	Kinds []Kind
	// Shard and Disk restrict to one shard/disk; -1 means any.
	Shard int
	Disk  int
	// Stream restricts to one engine-local stream id; 0 means any.
	Stream int64
	// Object restricts to one catalog name; empty means any.
	Object string
	// Limit keeps only the newest Limit matching events (0 = all).
	Limit int
}

// MatchAll is the everything-matches filter (Shard and Disk open).
func MatchAll() Filter { return Filter{Shard: -1, Disk: -1} }

// matches tests every dimension but SinceSeq, which Events applies as a
// ring position.
func (f *Filter) matches(sl *slot) bool {
	if f.Shard >= 0 && int(sl.shard) != f.Shard {
		return false
	}
	if f.Disk >= 0 && int(sl.disk) != f.Disk {
		return false
	}
	if f.Stream != 0 && sl.stream != f.Stream {
		return false
	}
	if f.Object != "" && sl.object() != f.Object {
		return false
	}
	return len(f.Kinds) == 0 || slices.Contains(f.Kinds, sl.kind)
}

// Events returns the retained events matching f, oldest first, in one
// allocation sized to them: a newest-first pass counts the matches, and
// stops at Limit, before a second pass expands them. Readers pay the
// allocation; the append path never does.
func (j *Journal) Events(f Filter) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.events.Len()
	head := j.events.Pushed() - uint64(n) // the seq before the oldest slot's
	lo := 0
	if f.SinceSeq > head {
		lo = int(min(f.SinceSeq-head, uint64(n)))
	}
	count, from := 0, n
	for i := n - 1; i >= lo && (f.Limit <= 0 || count < f.Limit); i-- {
		if f.matches(j.events.At(i)) {
			count, from = count+1, i
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]Event, 0, count)
	for i := from; len(out) < count; i++ {
		if sl := j.events.At(i); f.matches(sl) {
			out = append(out, sl.event(head+uint64(i)+1))
		}
	}
	return out
}

// Stats is the journal's accounting snapshot.
type Stats struct {
	// Capacity is the ring size; Retained how many events it holds.
	Capacity int `json:"capacity"`
	Retained int `json:"retained"`
	// HeadSeq is the newest event's sequence number (equals the lifetime
	// append count); Dropped how many events aged out of the ring.
	HeadSeq uint64 `json:"head_seq"`
	Dropped uint64 `json:"dropped"`
}

// Stats snapshots the accounting (zero value for nil).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Capacity: j.events.Cap(),
		Retained: j.events.Len(),
		HeadSeq:  j.events.Pushed(),
		Dropped:  j.events.Pushed() - uint64(j.events.Len()),
	}
}
