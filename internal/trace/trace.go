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
// Spans export as plain JSON and as Chrome trace-event format (see
// ChromeTrace), loadable in Perfetto or chrome://tracing with one round
// length of virtual time per scheduling round.
package trace

import (
	"sync"

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
// model treats stochastically — see the DESIGN.md trace↔paper map.
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

// Append adds the event of one served request to the span: the single
// place a sweep.Request outcome becomes a RequestEvent. stream labels the
// event; late is the caller's deadline verdict (the sweep kernel knows no
// deadline). Spare capacity left by Record's buffer swap is reused
// without zeroing, so every field is assigned here; filling through the
// pointer skips the construct-on-stack-then-copy that appending a
// composite literal costs per request on the round hot path.
func (sp *RoundSpan) Append(stream int64, r *sweep.Request, late bool) {
	n := len(sp.Requests)
	if n == cap(sp.Requests) {
		sp.Requests = append(sp.Requests, RequestEvent{})
	}
	sp.Requests = sp.Requests[:n+1]
	ev := &sp.Requests[n]
	ev.Stream = stream
	ev.Cylinder = r.Cylinder
	ev.Zone = r.Zone
	ev.SeekCylinders = r.SeekCylinders
	ev.Bytes = r.Size
	ev.Start = r.Start
	ev.Seek = r.Seek
	ev.Rotation = r.Rotation
	ev.Transfer = r.Transfer
	ev.Retries = r.Retries
	ev.Late = late
	ev.Lost = r.Lost
}

// RoundSpan is one disk's SCAN sweep in one round, with its per-request
// child events. Record takes ownership of a span's Requests buffer (see
// its swap contract); readers always receive deep copies, so a returned
// span is immutable to the caller.
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

// Recorder is the flight recorder: a fixed-size ring of RoundSpans safe
// for any number of concurrent writers and readers. Committing a span is
// one mutex-guarded struct copy plus a buffer swap (request slices
// shuttle between the caller and the ring across laps, so a steady-state
// server allocates nothing on the record path). A nil *Recorder is valid
// and records nothing, which is how tracing is disabled.
type Recorder struct {
	mu          sync.Mutex
	spans       ring.Buffer[RoundSpan] // Pushed is the next commit sequence
	roundLength float64

	frozen   *Snapshot
	triggers int64
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
	return &Recorder{spans: ring.New[RoundSpan](n), roundLength: t}
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

// Record commits one sweep span and assigns it the next sequence number.
// The span's Requests buffer is donated to the ring: Record swaps it with
// the evicted slot's buffer and hands that one back (truncated to length
// zero) in sp.Requests for the caller's next sweep. The hot path is
// therefore one mutex hold and a fixed-size struct copy — no per-request
// copying and, once the ring has lapped, no allocation — which is what
// keeps the Step trace-on/trace-off overhead within the benchmark budget.
// No-op on a nil recorder.
func (r *Recorder) Record(sp *RoundSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	seq := r.spans.Pushed()
	slot := r.spans.Next()
	scratch := slot.Requests[:0]
	*slot = *sp
	slot.Seq = seq
	r.mu.Unlock()
	sp.Requests = scratch
}

// liveLocked copies the retained spans oldest-first. Caller holds r.mu.
func (r *Recorder) liveLocked() []RoundSpan {
	out := r.spans.AppendTo(make([]RoundSpan, 0, r.spans.Len()))
	for i := range out {
		out[i].Requests = append([]RequestEvent(nil), out[i].Requests...)
	}
	return out
}

// Live returns a deep copy of the retained spans, oldest first (nil
// recorder: empty). The copy is consistent: it is taken under the same
// lock Record commits under, so sequence numbers are contiguous.
func (r *Recorder) Live() []RoundSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveLocked()
}

// Freeze latches a snapshot of the current ring under the given trigger
// reason, unless one is already held: the recorder preserves the history
// leading up to the *first* trigger, and later triggers only bump the
// Stats.Triggers count until Clear releases the latch. It reports whether
// this trigger latched and, if so, the commit sequence of the newest span
// in the snapshot, so the caller can cross-link the incident it belongs
// to. No-op on nil.
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
	r.frozen = &Snapshot{
		Reason: reason,
		Round:  round,
		Seq:    seq,
		Spans:  r.liveLocked(),
	}
	return seq, true
}

// Frozen returns the latched snapshot, if any. The snapshot is immutable;
// repeated calls return the same history until Clear.
func (r *Recorder) Frozen() (Snapshot, bool) {
	if r == nil {
		return Snapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen == nil {
		return Snapshot{}, false
	}
	return *r.frozen, true
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
