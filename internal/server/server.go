// Package server implements the multimedia server architecture of §2 and
// the table-driven admission control of §5: continuous objects fragmented
// into constant-display-time pieces, coarse-grained round-robin striping
// across D disks, round-based SCAN scheduling per disk, and an admission
// controller that caps the per-disk multiprogramming level at the N_max
// precomputed by the analytic model.
//
// Striping detail: fragment k of an object with base disk b resides on
// disk (b+k) mod D, so a stream that starts in round r0 always loads disk
// (offset + r) mod D in round r, where offset = (b − r0) mod D is constant
// for the stream's lifetime. Admission therefore reduces to bounding the
// stream count of each offset class by N_max, and the server can balance
// classes by delaying a new stream's start by up to D−1 rounds (for D=1
// this is the paper's "startup delay of up to one round", §2.3).
//
// Two facts have one owner each. The limit in force — N_max, the per-disk
// models and explanations behind it, the two bounds quoted at it, whether
// it answers a fault — is one immutable limits value behind an atomic
// pointer: New, Recalibrate and the degrade controller build or pick a
// value and hand it to install, the only writer, and every reader (admit,
// the ledger's promise, the SLO budgets, Health, AdmissionStatus,
// BoundTightness) loads it once and so holds one consistent quote. The
// timeline of what happened inside this server is written here and only
// here (journal.go): the SLO audit, the flight recorder and the fault
// injector report a transition, a latch or an effect, and the round loop
// records it with the round, the shard and the limits it alone knows.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/slo"
	"mzqos/internal/sweep"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// Server implements the shared round-engine contract, so a cluster
// coordinator can treat it as one shard among many — including the
// optional tightness-reporting capability the cluster aggregates.
var (
	_ engine.Engine            = (*Server)(nil)
	_ engine.TightnessReporter = (*Server)(nil)
)

// Errors reported by the server. The admission and catalog conditions
// wrap the engine-level sentinels, so errors.Is matches either identity.
var (
	// ErrConfig is returned for invalid server configurations.
	ErrConfig = errors.New("server: invalid configuration")
	// ErrRejected is returned when admission control turns a stream away.
	ErrRejected = fmt.Errorf("server: %w", engine.ErrRejected)
	// ErrUnknownObject is returned for opens of objects not in the catalog.
	ErrUnknownObject = fmt.Errorf("server: %w", engine.ErrUnknownObject)
	// ErrUnknownStream is returned for operations on closed or unknown streams.
	ErrUnknownStream = fmt.Errorf("server: %w", engine.ErrUnknownStream)
	// ErrDuplicateObject is returned when an object name is already taken.
	ErrDuplicateObject = fmt.Errorf("server: %w", engine.ErrDuplicateObject)
)

// Config assembles a server.
type Config struct {
	// Disk is the drive geometry replicated NumDisks times (the paper's
	// homogeneous array).
	Disk     *disk.Geometry
	NumDisks int
	// RoundLength is the scheduling round length t in seconds; it equals
	// the display time of every fragment.
	RoundLength float64
	// Sizes is the fragment-size statistics fed to the admission model.
	Sizes workload.SizeModel
	// Guarantee is the stochastic service target enforced by admission.
	Guarantee model.Guarantee
	// Seed makes fragment placement and service simulation reproducible.
	Seed uint64
	// Faults optionally schedules deterministic service faults (latency
	// inflation, zone-rate degradation, transient read errors, disk
	// failure) against the round timeline. Nil means a healthy array. The
	// same plan handed to a simulator reproduces the identical fault
	// schedule, which is what makes analytic-vs-simulated comparisons
	// under faults meaningful.
	Faults *fault.Plan
	// Degrade configures the reaction to sustained faults: re-deriving the
	// admission limits against the degraded disks and shedding streams to
	// fit. Zero value = never adapt (faults silently violate the
	// guarantee, which BoundTightness then reports).
	Degrade DegradeConfig
	// Trace sizes the round-level flight recorder (per-request span
	// events, freeze-on-trigger snapshots — see internal/trace). The zero
	// value enables it at the default ring capacity; set Trace.Disabled
	// to run without tracing. RoundLength is filled in from the server's.
	Trace trace.Config
	// SLO configures the live guarantee audit (see internal/slo): the
	// analytic bounds become error budgets tracked over sliding windows,
	// with alerting that freezes the flight recorder and journals each
	// incident. The zero value enables the audit at the
	// package defaults; set SLO.Disabled to run without one.
	SLO slo.Config
	// Registry optionally supplies a shared metric registry. Multi-engine
	// processes (mzserver -shards) pass one registry to every shard so a
	// single /metrics endpoint exposes the whole fleet; nil creates a
	// private registry, preserving the single-server behaviour.
	Registry *telemetry.Registry
	// InstanceLabels are prepended to every mzqos_server_* series this
	// server registers (e.g. shard="3"). Required whenever several
	// servers share a Registry: without a distinguishing label the second
	// server would silently adopt the first one's series and the shards
	// would clobber each other's counters.
	InstanceLabels []telemetry.Label
	// Journal optionally receives typed lifecycle events (admission,
	// eviction, glitching rounds, limit changes, fault edges, SLO alert
	// transitions, recorder freezes) on the cluster-wide timeline. It is
	// the server's one lifecycle record: /timeline and mzserver's -log
	// are views of it, and no other sink is written. Shards of one
	// cluster share a single journal; nil disables journalling.
	Journal *journal.Journal
	// Ledger tracks every stream's promised-vs-delivered QoS record, and
	// Stats answers a retired stream from it. Like Journal it is shared
	// across a cluster's shards; nil gives the server a private one that
	// retains engine.RetainedStreams retirements.
	Ledger *journal.Ledger
	// Shard labels this server's journal events and ledger records with
	// its cluster shard id, a non-negative index (0 for a standalone
	// server).
	Shard int
	// History optionally records every registry series once per round
	// into the embedded time-series store (see internal/history). Nil
	// disables recording. In cluster mode the coordinator owns the single
	// per-round sample instead, so shard configs leave this nil.
	History *history.Store
}

// StreamID identifies an open stream (shared with every other engine
// through internal/engine; cluster-wide identity is the (shard, StreamID)
// pair).
type StreamID = engine.StreamID

// object is a catalog entry: fragment k lives on disk (base+k) mod D, at
// the cylinder and zone in its slot of frags[k] (engine.Fragment). The
// fragments' locations were chosen uniformly at layout time, which is
// what makes per-round glitch events independent across rounds (§3.3).
// frags is shared with the replica that placed into the other slot.
type object struct {
	name  string
	base  int32
	slot  uint8
	frags []engine.Fragment
}

// stream is one active playback. The active set holds streams by value,
// so each carries its object's fragments and slot for Step's gather to
// read in place.
type stream struct {
	id       StreamID
	obj      *object
	frags    []engine.Fragment // obj.frags
	offset   int32             // offset class: disk in round r is (offset+r) mod D
	slot     uint8             // obj.slot
	next     int               // next fragment index to read
	start    int               // first round in which the stream reads
	delay    int               // startup delay in rounds (admission-time slotting)
	glitches int
	served   int
}

// StreamStats reports the service quality one stream experienced.
type StreamStats struct {
	Object   string
	Served   int
	Glitches int
	// StartupDelay is the number of rounds between admission and the
	// first fragment read (§2.3: "an admitted stream may receive a small
	// startup delay"; with heterogeneous-width arrays up to D−1 rounds).
	StartupDelay int
	Done         bool
}

// Server is a striped continuous-media server. Mutating operations (Open,
// Close, Step, ExportStream, ImportStream, Recalibrate, ...) are not safe
// for concurrent use; drive them from one goroutine (the round loop). The
// observability surface — Telemetry() and BoundTightness() — is safe to
// read concurrently with that loop, which is what the HTTP exposition
// endpoint does.
type Server struct {
	cfg      Config
	geoms    []*disk.Geometry       // one per disk (repeated for homogeneous arrays)
	lim      atomic.Pointer[limits] // the limits in force; replaced whole by install, never edited
	rng      *rand.Rand
	round    int
	nextID   StreamID
	nextBase int
	catalog  map[string]*object
	active   []stream       // ascending StreamID, the order Step gathers in
	classes  []atomic.Int64 // active streams per offset class; written by the loop, read by anyone
	tel      *Telemetry
	inj      *fault.Injector // nil-safe: a nil injector is a healthy array
	deg      degradeState

	// Step scratch, reused across rounds: the per-disk fault effects, the
	// fragments gathered for each disk (Ref indexes active), the requests
	// its sweep served and the streams that completed, in service order.
	// done points into active, so it lives only until active next
	// changes: retireDone consumes it before it compacts. rows is the
	// unspent rest of the current block of report rows (see diskRows).
	effs     []fault.Effects
	frags    [][]sweep.Fragment
	reqs     [][]sweep.Request
	done     []*stream
	retiring []journal.Retirement // done's ledger retirements, in service order
	rows     []DiskRoundReport

	// Round-level tracing: the flight recorder plus a scratch span the
	// Step loop fills and commits once per loaded disk (the recorder
	// deep-copies, so one scratch serves every sweep).
	trc     *trace.Recorder // nil-safe: nil means tracing disabled
	trcSpan trace.Span

	// SLO audit: sliding-window bound-vs-measured estimators plus
	// their alert machines (nil = disabled; see internal/slo).
	sloAud *slo.Auditor

	// Event journal (nil-safe) and QoS ledger (never nil; both shared
	// across shards in cluster mode). shard labels this server's events
	// and records. The server is the only writer of its events: the
	// audit, the recorder and the injector report facts, journal.go turns
	// them into events.
	jnl    *journal.Journal
	ledger *journal.Ledger
	shard  int
	hist   *history.Store // nil-safe: nil means no embedded history

	observed dist.Welford // served fragment sizes, for recalibration
}

// New validates cfg, evaluates the admission model once (the lookup-table
// discipline of §5), and returns an empty server.
func New(cfg Config) (*Server, error) {
	if cfg.Disk == nil || cfg.NumDisks < 1 || !(cfg.RoundLength > 0) || cfg.Sizes.Dist == nil {
		return nil, ErrConfig
	}
	if cfg.Shard < 0 {
		return nil, fmt.Errorf("%w: shard %d is negative", ErrConfig, cfg.Shard)
	}
	// A journal event labels its shard in 32 bits and its disk in 16.
	if cfg.Shard > math.MaxInt32 || cfg.NumDisks > journal.MaxDisks {
		return nil, fmt.Errorf("%w: shard %d of %d disks is past what the journal labels (%d disks)",
			ErrConfig, cfg.Shard, cfg.NumDisks, journal.MaxDisks)
	}
	// The catalog keeps a fragment's cylinder in 16 bits and its zone in 8
	// (engine.Fragment); the flight recorder's fields are wider
	// (trace.Addressable).
	if g := cfg.Disk; g.Cylinders() > engine.MaxCylinders || g.ZoneCount() > engine.MaxZones {
		return nil, fmt.Errorf("%w: disk %s has %d cylinders in %d zones, more than the catalog can address",
			ErrConfig, g.Name, g.Cylinders(), g.ZoneCount())
	}
	geoms := make([]*disk.Geometry, cfg.NumDisks)
	for d := range geoms {
		geoms[d] = cfg.Disk
	}

	lim, err := evaluateDisks(geoms, cfg.Sizes, cfg.RoundLength, cfg.Guarantee)
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if cfg.Faults != nil {
		inj, err = fault.NewInjector(*cfg.Faults, len(geoms))
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	ledger := cfg.Ledger
	if ledger == nil {
		ledger = journal.NewLedger(journal.LedgerConfig{Retired: engine.RetainedStreams})
	}
	tel, err := newTelemetry(cfg.Registry, cfg.InstanceLabels, len(geoms), cfg.RoundLength)
	if err != nil {
		return nil, fmt.Errorf("server: building telemetry: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		geoms:   geoms,
		rng:     dist.NewRand(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15),
		catalog: make(map[string]*object),
		classes: make([]atomic.Int64, len(geoms)),
		effs:    make([]fault.Effects, len(geoms)),
		frags:   make([][]sweep.Fragment, len(geoms)),
		reqs:    make([][]sweep.Request, len(geoms)),
		tel:     tel,
		inj:     inj,
		jnl:     cfg.Journal,
		ledger:  ledger,
		shard:   cfg.Shard,
		hist:    cfg.History,
	}
	if !cfg.Trace.Disabled {
		tcfg := cfg.Trace
		tcfg.RoundLength = cfg.RoundLength
		s.trc = trace.NewRecorder(tcfg)
	}
	s.sloAud, err = slo.New(cfg.SLO, len(geoms))
	if err != nil {
		return nil, fmt.Errorf("server: building slo audit: %w", err)
	}
	s.deg = degradeState{enabled: cfg.Degrade.Enabled, after: cfg.Degrade.After}
	if s.deg.after <= 0 {
		s.deg.after = DefaultDegradeAfter
	}
	s.install(lim)
	return s, nil
}

// limits is the admission limit in force with everything quoted from it:
// the per-disk models and decision traces, the binding (minimum-N_max)
// disk that sets the server-wide limit, the two analytic bounds at that
// limit — the ledger's promise and the SLO audit's budgets — and whether
// the limit answers a fault. A value is complete before install publishes
// it and is never written afterwards, so a reader that loads the pointer
// once holds one consistent quote however the loop moves on.
type limits struct {
	binding  *model.Model   // model of the binding (slowest) disk
	mdls     []*model.Model // one model per disk, index-aligned with geoms
	nmax     int
	explains []model.AdmissionExplanation // per-disk decision traces
	bindDisk int                          // disk whose model binds nmax

	// quote is the half of every admission's promise that the limits set:
	// b_late and b_glitch at nmax and the binding constraint (bindDisk
	// and its explanation's k, bound family and θ), built by install.
	// The bounds are also the SLO audit's budgets. It is an object of its
	// own, which the ledger's records point to without keeping the models.
	quote *journal.Quote

	degraded bool // derived against faulty disks; degradeState.base holds the way back
	failed   bool // a failed disk holds admission closed
}

// evaluateDisks builds one admission model per disk (sharing instances
// across repeated geometries so homogeneous arrays evaluate once) and
// returns the limits they set: the binding model, the minimum N_max, and
// the per-disk admission explanations recording which constraint produced
// each limit.
func evaluateDisks(geoms []*disk.Geometry, sizes workload.SizeModel, roundLength float64, g model.Guarantee) (*limits, error) {
	lim := &limits{
		nmax:     -1,
		mdls:     make([]*model.Model, 0, len(geoms)),
		explains: make([]model.AdmissionExplanation, 0, len(geoms)),
	}
	type entry struct {
		mdl *model.Model
		exp model.AdmissionExplanation
	}
	cache := make(map[*disk.Geometry]entry)
	for i, geom := range geoms {
		e, ok := cache[geom]
		if !ok {
			var err error
			e.mdl, err = model.New(model.Config{
				Disk:        geom,
				Sizes:       sizes,
				RoundLength: roundLength,
			})
			if err != nil {
				return nil, fmt.Errorf("%w: building admission model: %w", ErrConfig, err)
			}
			e.exp, err = e.mdl.ExplainNMax(g)
			if err != nil {
				return nil, fmt.Errorf("server: evaluating guarantee: %w", err)
			}
			cache[geom] = e
		}
		lim.mdls = append(lim.mdls, e.mdl)
		lim.explains = append(lim.explains, e.exp)
		if lim.nmax < 0 || e.exp.NMax < lim.nmax {
			lim.nmax = e.exp.NMax
			lim.binding = e.mdl
			lim.bindDisk = i
		}
	}
	return lim, nil
}

// install puts next in force — the single choke point every limit change
// (New, Recalibrate, degrade, restore) flows through. It builds next's
// quote — the two analytic bounds at its N_max from its binding model and
// the binding constraint — publishes the value, and refreshes the limit
// gauges and the SLO audit's error budgets from it, so the ledger, the
// audit and every report read the same quote. next must not have been
// published before: install completes it.
func (s *Server) install(next *limits) {
	exp := &next.explains[next.bindDisk]
	q := &journal.Quote{BindingDisk: next.bindDisk, BindingK: exp.BindingK, BindingBound: exp.Bound, Theta: exp.Theta}
	if next.nmax > 0 {
		if bl, err := next.binding.LateBound(next.nmax); err == nil {
			q.BoundLate = bl
		}
		if bg, err := next.binding.GlitchBound(next.nmax); err == nil {
			q.BoundGlitch = bg
		}
	}
	next.quote = q
	s.lim.Store(next)
	s.tel.nmax.Set(float64(next.nmax))
	s.tel.boundLate.Set(q.BoundLate)
	s.tel.boundGlitch.Set(q.BoundGlitch)
	s.tel.degraded.Set(gaugeBool(next.degraded))
	s.tel.failed.Set(gaugeBool(next.failed))
	s.sloAud.SetBudgets(q.BoundLate, q.BoundGlitch)
	if next.nmax > 0 {
		// With admission closed the budget gauges keep the round's values
		// until auditSLO republishes them at its end.
		s.tel.slo.budget[0].Set(q.BoundLate)
		s.tel.slo.budget[1].Set(q.BoundGlitch)
	}
}

func gaugeBool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// NumDisks returns the array width D.
func (s *Server) NumDisks() int { return len(s.geoms) }

// Model exposes the admission model (for reporting).
func (s *Server) Model() *model.Model { return s.lim.Load().binding }

// PerDiskLimit returns N_max, the admitted streams allowed per disk.
func (s *Server) PerDiskLimit() int { return s.lim.Load().nmax }

// Capacity returns the server-wide stream limit D·N_max.
func (s *Server) Capacity() int { return s.lim.Load().nmax * len(s.geoms) }

// Active returns the number of open streams.
func (s *Server) Active() int { return len(s.active) }

// Round returns the index of the next round to be executed.
func (s *Server) Round() int { return s.round }

// RoundLength returns the scheduling round length t in seconds — the
// deadline every per-disk sweep is measured against.
func (s *Server) RoundLength() float64 { return s.cfg.RoundLength }

// Health returns the heartbeat snapshot a cluster coordinator caches:
// load, limits, degrade state and the SLO audit's window counts. It reads
// the limits in force once, atomic telemetry state and the audit's
// snapshot, so it is safe to call concurrently with the round loop —
// which is exactly what a heartbeat collector does.
func (s *Server) Health() engine.Health {
	lim := s.lim.Load()
	h := engine.Health{
		Active:       int(s.tel.active.Value()),
		PerDiskLimit: lim.nmax,
		Capacity:     lim.nmax * len(s.geoms),
		Round:        int(s.tel.rounds.Value()),
		Degraded:     lim.degraded,
		Failed:       lim.failed,
	}
	// The audit's snapshot takes its own short lock, so piggybacking it
	// on the heartbeat keeps Health race-free.
	h.SLO = s.sloAud.Health()
	return h
}

// AddObject stores a continuous object with the given fragment sizes
// (bytes, one per round of display time): a one-replica table, placed
// by PlaceObject.
func (s *Server) AddObject(name string, sizes []float64) error {
	return s.PlaceObject(name, engine.Tables(sizes, 1)[0], 0)
}

// CheckObject returns the error PlaceObject would refuse the object with,
// placing nothing.
func (s *Server) CheckObject(name string, frags []engine.Fragment) error {
	if name == "" || len(frags) == 0 {
		return ErrConfig
	}
	if _, ok := s.catalog[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateObject, name)
	}
	if i := slices.IndexFunc(frags, func(f engine.Fragment) bool { return !(f.Size > 0) }); i >= 0 {
		return fmt.Errorf("%w: fragment %d has size %v", ErrConfig, i, frags[i].Size)
	}
	return nil
}

// PlaceObject stores a continuous object whose fragments frags holds.
// Fragments are striped round-robin from a rotating base disk and placed
// uniformly at random within each disk, per §2.1/§3.3, into slot of each
// record. A refused object draws no placement, so it moves no later
// object.
func (s *Server) PlaceObject(name string, frags []engine.Fragment, slot int) error {
	if err := s.CheckObject(name, frags); err != nil {
		return err
	}
	base := s.nextBase
	// Fragment i lives on disk d = (base+i) mod D; place it uniformly
	// within that disk's own geometry.
	d := base
	for i := range frags {
		loc := s.geoms[d].SampleLocation(s.rng)
		frags[i].Cyl[slot], frags[i].Zone[slot] = uint16(loc.Cylinder), uint8(loc.Zone)
		if d++; d == len(s.geoms) {
			d = 0
		}
	}
	s.catalog[name] = &object{name: name, base: int32(base), slot: uint8(slot), frags: frags}
	s.nextBase = (s.nextBase + 1) % len(s.geoms)
	return nil
}

// AddSyntheticObject stores an object whose fragment sizes are drawn from
// the server's size model — convenient for load generation.
func (s *Server) AddSyntheticObject(name string, rounds int) error {
	if rounds < 1 {
		return ErrConfig
	}
	sizes := make([]float64, rounds)
	for i := range sizes {
		sizes[i] = s.cfg.Sizes.Sample(s.rng)
	}
	return s.AddObject(name, sizes)
}

// Open admits a new stream on the named object, or returns ErrRejected
// when every admissible start slot within the next D rounds is full. The
// startup delay is the number of rounds before the first fragment is read.
func (s *Server) Open(name string) (id StreamID, startupDelay int, err error) {
	return s.admit(engine.StreamState{Object: name}, false)
}

// admit is admission control, written once: Open admits the zero state of
// an object, ImportStream a stream mid-playback. Starting fragment P in
// round r puts the stream in offset class (base+P−r) mod D, so it reads
// fragment P from the disk that actually stores it; the returned delay is
// the slotting delay charged here, on top of any the state carries.
func (s *Server) admit(state engine.StreamState, imported bool) (StreamID, int, error) {
	obj, ok := s.catalog[state.Object]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownObject, state.Object)
	}
	if state.Position < 0 || state.Position >= len(obj.frags) {
		return 0, 0, fmt.Errorf("%w: import position %d outside %q (%d fragments)",
			ErrConfig, state.Position, state.Object, len(obj.frags))
	}
	lim := s.lim.Load()
	delay, class, ok := s.slot(lim.nmax, int(obj.base)+state.Position)
	if !ok {
		reason := RejectClassesFull
		if lim.nmax == 0 {
			reason = RejectOverload
		}
		s.recordRejection(state.Object, reason, lim.nmax)
		return 0, 0, ErrRejected
	}
	s.nextID++
	st := s.activate(class)
	st.id, st.obj, st.frags, st.slot = s.nextID, obj, obj.frags, obj.slot
	st.next, st.start, st.delay = state.Position, s.round+delay, state.Delay+delay
	st.served, st.glitches = state.Served, state.Glitches
	s.tel.admitted.Inc()
	s.journalAdmit(st, imported, lim)
	return st.id, delay, nil
}

// slot picks the start slot for a stream whose first fragment to read
// lives on disk first mod D (first = base + position). Starting in round
// s.round+delay puts the stream in offset class (first − (round+delay))
// mod D; the least-loaded class within the next D rounds wins (smallest
// delay on ties) so load stays balanced across disks, and ok is false
// when even the emptiest class is at nmax — always, when nmax is 0. Each
// round of delay steps the class down by one, wrapping below 0 to D−1.
func (s *Server) slot(nmax, first int) (delay, class int, ok bool) {
	d := len(s.geoms)
	bestDelay, bestClass := -1, 0
	bestCount := nmax
	c := mod(first-s.round, d)
	for k := 0; k < d; k++ {
		if n := int(s.classes[c].Load()); n < bestCount {
			bestCount, bestDelay, bestClass = n, k, c
		}
		if c--; c < 0 {
			c = d - 1
		}
	}
	if bestDelay < 0 {
		return 0, 0, false
	}
	return bestDelay, bestClass, true
}

// occupancy appends the per-class stream counts to dst: the one read of
// classes every report goes through.
func (s *Server) occupancy(dst []int) []int {
	for i := range s.classes {
		dst = append(dst, int(s.classes[i].Load()))
	}
	return dst
}

// find binary-searches the active slice for id.
func (s *Server) find(id StreamID) (int, bool) {
	return slices.BinarySearchFunc(s.active, id, func(st stream, id StreamID) int {
		return cmp.Compare(st.id, id)
	})
}

// activate enters a stream of offset class into the active set and its
// class, and returns it for the caller to fill in place. The caller gives
// it a fresh id, above every active one (Open and ImportStream both issue
// the next), so appending keeps active ascending.
func (s *Server) activate(class int) *stream {
	n := len(s.active)
	s.active = slices.Grow(s.active, 1)[:n+1]
	st := &s.active[n]
	*st = stream{offset: int32(class)}
	s.classes[class].Add(1)
	s.tel.active.Set(float64(len(s.active)))
	return st
}

// deactivate removes active[i] from the active set and its offset class.
func (s *Server) deactivate(i int) {
	s.classes[s.active[i].offset].Add(-1)
	s.active = slices.Delete(s.active, i, i+1)
	s.tel.active.Set(float64(len(s.active)))
}

// Close stops an active stream early, releasing its admission slot. Its
// ledger record finalizes, which Stats then answers from.
func (s *Server) Close(id StreamID) error {
	if i, ok := s.find(id); ok {
		s.retire(i)
		return nil
	}
	return ErrUnknownStream
}

// retire deactivates active[i], which stopped before its last fragment,
// counts it retired and closes its ledger record. Step retires its
// completions itself, all at once (see retireDone).
func (s *Server) retire(i int) {
	r := s.active[i].retirement(false)
	s.deactivate(i)
	s.tel.retired.Inc()
	s.ledger.Retire(s.shard, s.round, []journal.Retirement{r})
}

// stats reports the service active stream st has had so far.
func (st *stream) stats() StreamStats {
	return StreamStats{
		Object:       st.obj.name,
		Served:       st.served,
		Glitches:     st.glitches,
		StartupDelay: st.delay,
	}
}

// retirement returns the delivered totals that close the stream's QoS
// ledger record (completion, Close or eviction), for the caller to hand
// to Ledger.Retire with the rest of its batch. The caller counts it in
// the telemetry counters, which keep the totals the ledger's ring drops.
func (st *stream) retirement(done bool) journal.Retirement {
	return journal.Retirement{ID: int64(st.id), Delivered: journal.Delivered{
		StartupDelay: st.delay,
		Served:       st.served,
		Glitches:     st.glitches,
		Done:         done,
	}}
}

// Stats returns the stats of an active stream, or of one whose ledger
// record this server finalized: closed, completed, shed, or exported with
// no migration waiting on it. Those are the ledger's newest record under
// (shard, id), so a server that shares its ledger answers only for its own
// shard, and a stream that migrated is answered by its destination.
func (s *Server) Stats(id StreamID) (StreamStats, error) {
	if i, ok := s.find(id); ok {
		return s.active[i].stats(), nil
	}
	if obj, d, ok := s.ledger.Retired(s.shard, int64(id)); ok {
		return StreamStats{
			Object:       obj,
			Served:       d.Served,
			Glitches:     d.Glitches,
			StartupDelay: d.StartupDelay,
			Done:         d.Done,
		}, nil
	}
	return StreamStats{}, ErrUnknownStream
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
