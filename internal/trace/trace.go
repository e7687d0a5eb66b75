// Package trace is the round-level tracing subsystem: a low-overhead,
// allocation-bounded recorder of structured per-round spans, each carrying
// the per-request service events (seek, rotational delay, zone hit,
// transfer, retries, fault annotations) that realize the paper's round
// decomposition T_N = SEEK(N) + Σ T_rot,i + Σ T_trans,i (eq. 3.1.1).
//
// Where the telemetry package answers "how often" (histograms, counters),
// this package answers "which request in which sweep" — the per-interval
// evidence that time-domain stochastic service analysis asks guarantees to
// be checked against. The Recorder doubles as a flight recorder: it always
// retains the last R sweeps in a fixed ring, and on a trigger condition
// (glitch, down round, degrade transition) it latches a deep-copied
// snapshot of that ring so the rounds *leading up to* the event survive
// until someone reads them, no matter how long the server keeps running.
//
// Both the ring and the snapshot keep a request as a 32-byte record of
// what its sweep drew and decided — stream, size, drawn rotation,
// cylinder, zone, retries, and Late and Lost as bits — not as the 88-byte
// RequestEvent. The rest follows from those: each span carries its disk
// and the round's latency and rate scales, and a reader replays the span
// in SCAN order through sweep.Cursor.Advance, the per-request arithmetic
// sweep.Serve itself runs, so Start, Seek, Transfer, the retried Rotation
// and the arm travel read back bit for bit. Writers fill a Span through
// Served and Append and hand it to Record, which swaps the span's record
// buffer with the one of the slot it overwrites rather than copying; Live
// and Frozen copy the compact records under the lock and replay them after
// it, and Sweeps reads the headers alone.
//
// Spans export as plain JSON and as Chrome trace-event format (see
// ChromeTrace), loadable in Perfetto or chrome://tracing with one round
// length of virtual time per scheduling round.
package trace

import (
	"math"
	"sync"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/ring"
	"mzqos/internal/sweep"
)

// DefaultSpans is the ring capacity (in sweep spans, i.e. round×disk
// entries) used when Config.Spans is zero: with 4 disks this retains the
// last 256 rounds of full per-request history.
const DefaultSpans = 1024

// Config sizes a Recorder.
type Config struct {
	// Disabled turns tracing off entirely: consumers should hold a nil
	// *Recorder, whose methods all no-op. (The Step-overhead benchmark
	// pair measures exactly this switch.)
	Disabled bool
	// Spans is the ring capacity in sweep spans (one span per loaded disk
	// per round); 0 selects DefaultSpans.
	Spans int
	// RoundLength is the scheduling round length t in seconds; it maps
	// round indices onto the Chrome export's virtual timeline. Required
	// for ChromeTrace output to be to scale (0 falls back to 1s rounds).
	RoundLength float64
}

// RequestEvent is one request's service record inside a sweep: the child
// event of a round span. Every field is a realized draw of a quantity the
// model treats stochastically — see the DESIGN.md trace↔paper map. The
// recorder keeps a request as a 32-byte record and replays it into this
// shape on read.
type RequestEvent struct {
	// Stream is the served stream (server traces) or the request's sweep
	// slot (simulator traces, which have no stream identity).
	Stream int64 `json:"stream"`
	// Cylinder and Zone locate the fragment on the disk; SeekCylinders is
	// the arm travel from the previous request in SCAN order.
	Cylinder      int `json:"cylinder"`
	Zone          int `json:"zone"`
	SeekCylinders int `json:"seek_cylinders"`
	// Bytes is the fragment size.
	Bytes float64 `json:"bytes"`
	// Start is the request's service start offset within the sweep
	// (seconds from the round start); Seek, Rotation, and Transfer are its
	// three service phases. Rotation includes retry revolutions.
	Start    float64 `json:"start_s"`
	Seek     float64 `json:"seek_s"`
	Rotation float64 `json:"rotation_s"`
	Transfer float64 `json:"transfer_s"`
	// Retries counts extra revolutions paid re-reading after transient
	// read errors; Late marks a request finishing past the round deadline;
	// Lost marks a fragment never delivered (retries exhausted).
	Retries int  `json:"retries,omitempty"`
	Late    bool `json:"late,omitempty"`
	Lost    bool `json:"lost,omitempty"`
}

// End returns the request's service completion offset within the sweep.
func (e RequestEvent) End() float64 { return e.Start + e.Seek + e.Rotation + e.Transfer }

// RoundSpan is one disk's SCAN sweep in one round, with its per-request
// child events: the read shape of a Span. Readers always receive fresh
// copies, so a returned span is the caller's.
type RoundSpan struct {
	// Seq is the recorder's gap-free commit sequence number (the i-th
	// committed span has Seq i, starting at 0); snapshot readers use it to
	// prove they observed a consistent, hole-free history.
	Seq uint64 `json:"seq"`
	// Round and Disk locate the sweep on the timeline.
	Round int `json:"round"`
	Disk  int `json:"disk"`
	// Requests holds the per-request events in SCAN service order.
	Requests []RequestEvent `json:"requests"`
	// Seek, Rotation, and Transfer are the sweep's phase totals; Busy is
	// their sum, the realized T_N (0 for a down round).
	Seek     float64 `json:"seek_s"`
	Rotation float64 `json:"rotation_s"`
	Transfer float64 `json:"transfer_s"`
	Busy     float64 `json:"busy_s"`
	// Observed is the value the round-time histogram recorded for this
	// sweep: Busy for a served round, the down-round sentinel (16·t) for a
	// failed disk. Summing Observed over spans therefore reproduces the
	// histogram's sum exactly — the property the Chrome export test pins.
	Observed float64 `json:"observed_s"`
	// Late and Lost count this sweep's glitching requests; Retries its
	// retry revolutions.
	Late    int `json:"late"`
	Lost    int `json:"lost"`
	Retries int `json:"retries"`
	// Faulty marks any active fault effect; Down a fully failed disk.
	Faulty bool `json:"faulty,omitempty"`
	Down   bool `json:"down,omitempty"`
}

// Sweep is a span's header: a RoundSpan's fields without the request
// events, which Requests counts. Writers fill everything but Seq and
// Requests, which Record assigns.
type Sweep struct {
	Seq                                      uint64
	Round, Disk                              int
	Requests                                 int
	Seek, Rotation, Transfer, Busy, Observed float64
	Late, Lost, Retries                      int
	Faulty, Down                             bool
}

// MaxZones is the most zones a traced disk may have: a record keeps a
// request's zone in 16 bits.
const MaxZones = math.MaxUint16

// Addressable reports whether every request on g fits a record: its
// cylinder in an int32 and its zone in 16 bits.
func Addressable(g *disk.Geometry) bool {
	return g.Cylinders() <= math.MaxInt32 && g.ZoneCount() <= MaxZones
}

// record is one request as the recorder keeps it, 32 bytes: what its
// sweep drew and decided for it. Its Start, Seek, Transfer and retried
// Rotation are not kept: once a fragment is placed they follow from its
// cylinder, zone and size, the rotation drawn for it, its retries, the
// disk and the round's fault scales, and the replay rebuilds them through
// sweep.Cursor.Advance, the arithmetic sweep.Serve served them with. Nor
// is SeekCylinders: sweep.Serve serves in SCAN order from an arm parked at
// cylinder 0, so it is the distance from the previous request's cylinder,
// and 0 on a failed disk, which moves no arm. Retries fits a byte because
// a fault plan allows at most fault.MaxRetries.
type record struct {
	stream   int64
	bytes    float64
	rotation float64 // as drawn, before retry revolutions
	cylinder int32
	zone     uint16
	retries  uint8
	flags    uint8 // lateBit | lostBit
}

// record.flags bits.
const (
	lateBit = 1 << iota
	lostBit
)

// Span is one sweep as the recorder keeps it, and the type its writers
// fill: the header, the disk and fault scales the sweep was served under,
// then one record per request in SCAN service order. A writer sets the
// header fields and Served, Appends each request, and hands the span to
// Record, which takes its records and gives it back an empty buffer for
// the next sweep.
type Span struct {
	Sweep
	geom          *disk.Geometry
	latency, rate float64
	reqs          []record
}

// Served records what the span's sweep was served under: the disk g and
// the round's fault effects eff, of which the replay reads the latency
// and rate scales.
func (sp *Span) Served(g *disk.Geometry, eff fault.Effects) {
	sp.geom, sp.latency, sp.rate = g, eff.LatencyScale, eff.RateScale
}

// Append adds one served request to the span: the single place a
// sweep.Request outcome becomes a trace record. stream labels it; late is
// the caller's deadline verdict (the sweep kernel knows no deadline).
// Requests must come in the order sweep.Serve wrote them, because the
// replay serves them again in that order. Filling through the pointer
// skips building the record on the stack and copying it, once per request
// on the round's hot path.
func (sp *Span) Append(stream int64, r *sweep.Request, late bool) {
	n := len(sp.reqs)
	if n == cap(sp.reqs) {
		sp.reqs = append(sp.reqs, record{})
	}
	sp.reqs = sp.reqs[:n+1]
	rec := &sp.reqs[n]
	rec.stream = stream
	rec.bytes = r.Size
	rec.rotation = r.Drawn
	rec.cylinder = int32(r.Cylinder)
	rec.zone = uint16(r.Zone)
	rec.retries = uint8(r.Retries)
	flags := uint8(0)
	if late {
		flags |= lateBit
	}
	if r.Lost {
		flags |= lostBit
	}
	rec.flags = flags
}

// expand replays the span into events, which must be as long as its
// requests, and returns it as a RoundSpan over them. A served span's
// requests are served again, in the order they were appended, through
// the kernel's own per-request arithmetic, so every time reads back bit
// for bit; a failed disk served none, and its requests read back with no
// times and no arm travel.
func (sp *Span) expand(events []RequestEvent) RoundSpan {
	var cur sweep.Cursor
	arm := 0
	for i := range sp.reqs {
		rec := &sp.reqs[i]
		r := sweep.Request{
			Fragment: sweep.Fragment{Cylinder: int(rec.cylinder), Zone: int(rec.zone), Size: rec.bytes},
			Retries:  int(rec.retries),
		}
		travel := 0
		if !sp.Down {
			travel = r.Cylinder - arm
			if travel < 0 {
				travel = -travel
			}
			arm = r.Cylinder
			r.Drawn = rec.rotation
			cur.Advance(sp.geom, sp.latency, sp.rate, &r)
		}
		events[i] = RequestEvent{
			Stream:        rec.stream,
			Cylinder:      r.Cylinder,
			Zone:          r.Zone,
			SeekCylinders: travel,
			Bytes:         r.Size,
			Start:         r.Start,
			Seek:          r.Seek,
			Rotation:      r.Rotation,
			Transfer:      r.Transfer,
			Retries:       r.Retries,
			Late:          rec.flags&lateBit != 0,
			Lost:          rec.flags&lostBit != 0,
		}
	}
	if len(events) == 0 {
		events = nil // an empty span's requests render as JSON null
	}
	h := &sp.Sweep
	return RoundSpan{
		Seq: h.Seq, Round: h.Round, Disk: h.Disk, Requests: events,
		Seek: h.Seek, Rotation: h.Rotation, Transfer: h.Transfer, Busy: h.Busy, Observed: h.Observed,
		Late: h.Late, Lost: h.Lost, Retries: h.Retries,
		Faulty: h.Faulty, Down: h.Down,
	}
}

// expandAll replays spans as RoundSpans whose events share one
// allocation.
func expandAll(spans []Span) []RoundSpan {
	total := 0
	for i := range spans {
		total += len(spans[i].reqs)
	}
	events := make([]RequestEvent, total)
	out := make([]RoundSpan, len(spans))
	for i := range spans {
		k := len(spans[i].reqs)
		out[i] = spans[i].expand(events[:k:k])
		events = events[k:]
	}
	return out
}

// copyLocked copies the ring's spans, oldest first, their records into
// one allocation. The copy is all a reader does under r.mu: it shares
// nothing the ring goes on to overwrite, so the replay runs unlocked.
func (r *Recorder) copyLocked() []Span {
	n, total := r.spans.Len(), 0
	for i := 0; i < n; i++ {
		total += len(r.spans.At(i).reqs)
	}
	recs := make([]record, 0, total)
	spans := make([]Span, n)
	for i := range spans {
		sp := r.spans.At(i)
		from := len(recs)
		recs = append(recs, sp.reqs...)
		spans[i] = *sp
		spans[i].reqs = recs[from:len(recs):len(recs)]
	}
	return spans
}

// Snapshot is a frozen copy of the recorder's ring, latched by Freeze.
type Snapshot struct {
	// Reason is the trigger that latched the snapshot ("glitch",
	// "down_round", "degrade", "restore", ...).
	Reason string `json:"reason"`
	// Round is the round index at which the trigger fired.
	Round int `json:"round"`
	// Seq is the commit sequence of the most recent span included.
	Seq uint64 `json:"seq"`
	// Spans holds the retained history, oldest first.
	Spans []RoundSpan `json:"spans"`
}

// Stats reports the recorder's lifetime accounting.
type Stats struct {
	// Capacity is the ring size in spans; Recorded the total spans
	// committed (Recorded − Capacity spans have been overwritten when
	// positive).
	Capacity int   `json:"capacity"`
	Recorded int64 `json:"recorded"`
	// Triggers counts Freeze calls; Frozen reports whether a latched
	// snapshot is currently held (further triggers are ignored until
	// Clear, so the history leading up to the *first* event survives).
	Triggers int64 `json:"triggers"`
	Frozen   bool  `json:"frozen"`
}

// Recorder is the flight recorder: a fixed-size ring of Spans safe for
// any number of concurrent writers and readers. Committing a span copies
// no record: under one mutex hold the slot takes the writer's record
// buffer and hands the writer the buffer it held. Every buffer handed
// back holds the largest sweep recorded so far, so once the ring has
// lapped at a server's peak load the record path allocates nothing. A
// nil *Recorder is valid and records nothing, which is how tracing is
// disabled.
type Recorder struct {
	mu          sync.Mutex
	spans       ring.Buffer[Span] // Pushed is the next commit sequence
	roundLength float64
	widest      int // the most requests of any span recorded

	frozen   *frozen
	triggers int64
}

// frozen is a latched snapshot as the recorder keeps it: Snapshot without
// its Spans, and the ring's spans at the trigger, their records in one
// allocation. It is never written once latched.
type frozen struct {
	Snapshot
	spans []Span
}

// NewRecorder returns a Recorder sized by cfg.
func NewRecorder(cfg Config) *Recorder {
	n := cfg.Spans
	if n <= 0 {
		n = DefaultSpans
	}
	t := cfg.RoundLength
	if !(t > 0) {
		t = 1
	}
	return &Recorder{spans: ring.New[Span](n), roundLength: t}
}

// Enabled reports whether the recorder is live (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// RoundLength returns the configured round length (1 for nil).
func (r *Recorder) RoundLength() float64 {
	if r == nil {
		return 1
	}
	return r.roundLength
}

// Record commits one sweep span, assigning it the next sequence number and
// its request count. The span's records are not copied: the ring slot it
// overwrites takes the span's buffer, and the span gets the slot's old
// buffer back, emptied, for the caller's next sweep. A buffer handed back
// that could not hold the widest span recorded so far is replaced by one
// that can, so the ring's buffers stop being replaced within one lap of
// the widest sweep, however the load churns. No-op on a nil recorder.
func (r *Recorder) Record(sp *Span) {
	if r == nil {
		return
	}
	n := len(sp.reqs)
	r.mu.Lock()
	seq := r.spans.Pushed()
	slot := r.spans.Next()
	back := slot.reqs
	*slot = *sp
	slot.Seq = seq
	slot.Requests = n
	r.widest = max(r.widest, n)
	widest := r.widest
	r.mu.Unlock()
	if cap(back) < widest {
		back = make([]record, 0, widest)
	}
	sp.reqs = back[:0]
}

// Live returns the retained spans, oldest first (nil recorder: empty),
// replayed into RoundSpans the caller owns. The copy is consistent: it is
// taken under the same lock Record commits under, so sequence numbers are
// contiguous; the replay runs after the lock is released.
func (r *Recorder) Live() []RoundSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := r.copyLocked()
	r.mu.Unlock()
	return expandAll(spans)
}

// Sweeps returns the headers of the retained spans, oldest first (nil
// recorder: empty): Live without the request events, which each header
// counts.
func (r *Recorder) Sweeps() []Sweep {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sweep, r.spans.Len())
	for i := range out {
		out[i] = r.spans.At(i).Sweep
	}
	return out
}

// Freeze latches a snapshot of the current ring under the given trigger
// reason, unless one is already held: the recorder preserves the history
// leading up to the *first* trigger, and later triggers only bump the
// Stats.Triggers count until Clear releases the latch. It reports whether
// this trigger latched and, if so, the commit sequence of the newest span
// in the snapshot, so the caller can cross-link the incident it belongs
// to. The snapshot keeps the ring's records as they are, compact, and is
// replayed only when read. No-op on nil.
func (r *Recorder) Freeze(reason string, round int) (seq uint64, latched bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.triggers++
	if r.frozen != nil {
		return 0, false
	}
	if n := r.spans.Pushed(); n > 0 {
		seq = n - 1
	}
	r.frozen = &frozen{Snapshot: Snapshot{Reason: reason, Round: round, Seq: seq}, spans: r.copyLocked()}
	return seq, true
}

// Frozen returns the latched snapshot, if any, replayed afresh on each
// call; repeated calls return the same history until Clear. A latched
// snapshot never changes, so the lock is held only to read which one is
// latched.
func (r *Recorder) Frozen() (Snapshot, bool) {
	if r == nil {
		return Snapshot{}, false
	}
	r.mu.Lock()
	f := r.frozen
	r.mu.Unlock()
	if f == nil {
		return Snapshot{}, false
	}
	snap := f.Snapshot
	snap.Spans = expandAll(f.spans)
	return snap, true
}

// Clear releases the frozen snapshot so the next trigger latches a fresh
// one. No-op on nil.
func (r *Recorder) Clear() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.frozen = nil
	r.mu.Unlock()
}

// Stats returns the recorder's lifetime accounting (zero value for nil).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Capacity: r.spans.Cap(),
		Recorded: int64(r.spans.Pushed()),
		Triggers: r.triggers,
		Frozen:   r.frozen != nil,
	}
}
