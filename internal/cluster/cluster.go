// Package cluster coordinates many round engines as one admission-
// controlled service: the scale-out of the paper's D-disk striped server
// to S server shards behind a coordinator.
//
// Admission is the paper's §5 table test N + 1 ≤ N_max, made by the round
// loop between sweeps and applied per shard: Open routes a stream to the
// first candidate shard whose own count of open streams is below its
// capacity in the coordinator's health view and opens the stream on that
// shard's engine. The coordinator keeps no count of its own: it is every
// shard's single writer, so a shard's open streams are exactly what the
// coordinator admitted there and has not seen leave. It steps the shards
// in lockstep; the view is refreshed from each engine's Health at the end
// of every round and after every Recalibrate, so the capacities Open
// admits on are never behind the engines. When a shard degrades (the
// fault-degradation machinery shrinking N_max), the next view publishes
// its reduced capacity and Open routes new load to sibling shards instead
// of closing cluster admission; streams the shard itself sheds come back
// as Evicted in Step reports and leave its count.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mzqos/internal/engine"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/ring"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
)

// Errors reported by the coordinator.
var (
	// ErrConfig is returned for invalid cluster configurations.
	ErrConfig = errors.New("cluster: invalid configuration")
	// ErrRejected is returned when every candidate shard is at capacity.
	ErrRejected = fmt.Errorf("cluster: %w", engine.ErrRejected)
)

// Routing policy names accepted by Config.Route.
const (
	// RouteRoundRobin spreads admissions over candidate shards with a
	// cursor.
	RouteRoundRobin = "round-robin"
	// RouteLeastLoaded picks the candidate with the lowest
	// open-streams/capacity load factor in the current view.
	RouteLeastLoaded = "least-loaded"
	// RouteAffinity hashes the object name to a sticky starting candidate,
	// so repeat opens of one object land on the same shard while capacity
	// lasts — a pure function of (name, view).
	RouteAffinity = "affinity"
)

const (
	routeRoundRobin = iota
	routeLeastLoaded
	routeAffinity
)

// admissionRingCap bounds the admission explainability ring.
const admissionRingCap = 256

// DefaultMigrateBudget is the per-round cap on migration re-admissions
// when Config.MigrateBudget is zero. Bounding the per-round work turns a
// mass failure into a paced drain instead of a stampede onto siblings;
// overflow simply waits in the migration queue for the next round.
const DefaultMigrateBudget = 256

// migrateMaxTries is how many rounds one exported stream is retried
// before its migration is counted failed. A retry waits for the next
// round's fresh view, so transient full-view rejections self-correct
// without the queue pinning unplaceable streams forever.
const migrateMaxTries = 3

// Config assembles a Coordinator.
type Config struct {
	// Engines are the shard engines; shard i is Engines[i]. The
	// coordinator becomes the engines' single writer: drive every
	// AddObject/Open/Close/Step/Recalibrate through it. It admits on each
	// engine's own count of open streams (Active).
	Engines []engine.Engine
	// Route selects the routing policy (RouteRoundRobin, RouteLeastLoaded,
	// RouteAffinity); empty means round-robin.
	Route string
	// Replicas is the number of shards each object is placed on (striped
	// round-robin from a moving cursor); 0 means 1. Opens route among the
	// object's replica shards only.
	Replicas int
	// Registry receives the cluster-level metrics (mzqos_cluster_*),
	// which MigrationStats also reads; nil gives the coordinator a
	// private one.
	Registry *telemetry.Registry
	// Migrate turns eviction into migration: streams a shard sheds (and
	// the active sets of failed shards) are exported and re-admitted on
	// sibling replicas during Step, resuming at their playback position,
	// instead of silently dying with the eviction.
	Migrate bool
	// MigrateBudget caps migration re-admissions per round (0 means
	// DefaultMigrateBudget); overflow queues for following rounds.
	MigrateBudget int
	// Journal optionally receives cluster-level timeline events (migrate,
	// failover). Shards share the same journal via
	// their own server configs, so one ring orders the whole cluster.
	Journal *journal.Journal
	// Ledger is the shared promised-vs-delivered stream ledger, the one
	// the shards' server configs name. With Migrate set the coordinator
	// enables its inflight stage so a suspended stream's record merges
	// into its sibling re-admission. Nil gives the coordinator a private
	// one, which no shard writes.
	Ledger *journal.Ledger
	// History optionally records every registry series once per
	// coordinator round into the embedded time-series store. The
	// coordinator owns the cluster's single per-round sample — shard
	// server configs leave their History nil so shared-registry series
	// are not re-sampled once per shard.
	History *history.Store
}

// shard is one engine of the fleet and its id.
type shard struct {
	id  int
	eng engine.Engine
}

// Handle identifies a cluster stream: the shard it lives on plus the
// engine-local stream id.
type Handle struct {
	Shard int             `json:"shard"`
	ID    engine.StreamID `json:"id"`
}

// AdmissionRecord is one materialized admission, retained in a bounded
// ring for explainability (the cluster /admission endpoint).
type AdmissionRecord struct {
	// Object is the opened object name.
	Object string `json:"object"`
	// Shard is the shard that admitted the stream; Stream its engine-local
	// id — together the stream's cluster Handle.
	Shard  int             `json:"shard"`
	Stream engine.StreamID `json:"stream"`
	// Delay is the startup delay in rounds reported by the engine.
	Delay int `json:"delay"`
	// Round is the coordinator round at admission time.
	Round int `json:"round"`
	// Route is the routing policy that placed the stream.
	Route string `json:"route"`
	// Kind distinguishes migration re-admissions from fresh opens: empty
	// for an Open, "migrate" for an evicted stream resumed on a sibling,
	// "failover" for a stream drained off a failed shard. From is the
	// source shard of a migration (meaningful only when Kind is set).
	Kind string `json:"kind,omitempty"`
	From int    `json:"from,omitempty"`
	// Position is the fragment index playback resumed at (migrations
	// only; fresh opens start at 0).
	Position int `json:"position,omitempty"`
}

// Coordinator owns S shards and serves cluster-wide admission over them.
// It is the shards' single writer, under the engines' contract: one loop
// drives AddObject, Open, Close, Step and Recalibrate, and other goroutines
// only read the reports — Status, SLOStatus, TightnessReport, Admissions,
// MigrationStats, Tickets and Round. It keeps no stream count of its own:
// admission reads each shard's Active, and Tickets and Status read each
// shard's Health mirror of it.
type Coordinator struct {
	shards []*shard
	route  int
	routeN string
	reps   int

	view atomic.Pointer[view]
	rr   int // round-robin cursor

	// placement maps object → candidate shard ids (ascending); a slice is
	// immutable once stored. AddObject alone writes it, so the loop reads
	// it without pmu, which orders those writes with Status.
	pmu       sync.RWMutex
	placement map[string][]int
	all       []int // every shard id, the no-placement candidate set
	placeCur  int   // placement cursor, moved only by AddObject

	// round counts coordinator rounds (Step calls).
	round atomic.Int64

	// admissions retains the last admissionRingCap materialized admissions.
	ringMu     sync.Mutex
	admissions ring.Buffer[AdmissionRecord]

	// Migration state. pending is the queue of exported stream states
	// awaiting re-admission; it is owned by the Step loop (single writer
	// by the engine contract) and needs no lock. queued is its length as
	// each migration pass leaves it, so Status may read it concurrently,
	// as it does the outcome counters in tel.
	migrate   bool
	migBudget int
	pending   []migration
	queued    atomic.Int64

	// Event journal (nil-safe) and QoS ledger (never nil).
	jnl    *journal.Journal
	ledger *journal.Ledger
	hist   *history.Store // nil-safe: nil means no embedded history

	// stepWG joins the workers of one round's shard fan-out. A field, not
	// a local the worker closures would move to the heap every round;
	// Step-owned like pending.
	stepWG sync.WaitGroup

	tel *clusterTelemetry
}

// migration is one exported stream state queued for re-admission.
type migration struct {
	state engine.StreamState
	from  int             // source shard, excluded from re-admission candidates
	id    engine.StreamID // engine-local id on the source shard (ledger lineage key)
	kind  string
	tries int
}

// MigrationStats is the externally visible migration counter snapshot.
type MigrationStats struct {
	// Attempted counts re-admission attempts charged against the budget;
	// Succeeded those that resumed on a sibling; Failed those abandoned
	// after migrateMaxTries rounds without an admitting sibling.
	Attempted int64 `json:"attempted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	// FailoverStreams counts streams drained off failed shards into the
	// migration queue (a subset of Attempted once processed).
	FailoverStreams int64 `json:"failover_streams"`
	// Pending is the queue length awaiting re-admission.
	Pending int `json:"pending"`
}

// clusterTelemetry is the mzqos_cluster_* metric set.
type clusterTelemetry struct {
	admitted   *telemetry.Counter
	rejected   *telemetry.Counter
	heartbeats *telemetry.Counter
	tickets    *telemetry.Gauge
	capacity   *telemetry.Gauge
	degraded   *telemetry.Gauge

	migAttempted *telemetry.Counter
	migSucceeded *telemetry.Counter
	migFailed    *telemetry.Counter
	migFailover  *telemetry.Counter

	// Cluster SLO roll-up series, indexed [target][window] like the
	// per-shard mzqos_slo_* set (target 0 late / 1 glitch, window 0 fast
	// / 1 slow).
	sloBudget [2]*telemetry.Gauge
	sloBurn   [2][2]*telemetry.Gauge
	sloFiring *telemetry.Gauge
}

func newClusterTelemetry(reg *telemetry.Registry) *clusterTelemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tel := &clusterTelemetry{
		admitted: reg.Counter("mzqos_cluster_admitted_total",
			"Cluster opens a shard had room for in the view (N + 1 ≤ N_max)."),
		rejected: reg.Counter("mzqos_cluster_rejected_total",
			"Cluster admissions turned away (every candidate shard full)."),
		heartbeats: reg.Counter("mzqos_cluster_heartbeats_total",
			"Shard-health view refreshes published."),
		tickets: reg.Gauge("mzqos_cluster_tickets",
			"Open streams across shards (the sum of the shards' own counts)."),
		capacity: reg.Gauge("mzqos_cluster_capacity",
			"Cluster-wide admission capacity in the current view (Σ D·N_max)."),
		degraded: reg.Gauge("mzqos_cluster_degraded_shards",
			"Shards degraded in the current view."),
		migAttempted: reg.Counter("mzqos_cluster_migrations_attempted_total",
			"Migration re-admission attempts (budgeted per round)."),
		migSucceeded: reg.Counter("mzqos_cluster_migrations_succeeded_total",
			"Evicted or failed-over streams resumed on a sibling replica."),
		migFailed: reg.Counter("mzqos_cluster_migrations_failed_total",
			"Migrations abandoned after exhausting retries without an admitting sibling."),
		migFailover: reg.Counter("mzqos_cluster_failover_streams_total",
			"Streams drained off failed shards into the migration queue."),
		sloFiring: reg.Gauge("mzqos_cluster_slo_firing_shards",
			"Shards with at least one SLO alert Firing in the current view."),
	}
	windows := [2]string{"fast", "slow"}
	for i := 0; i < 2; i++ {
		target := telemetry.L("target", slo.TargetName(i))
		tel.sloBudget[i] = reg.Gauge("mzqos_cluster_slo_budget",
			"Capacity-weighted cluster error budget per target (Σ cap·bound / Σ cap over audited shards).",
			target)
		for w := 0; w < 2; w++ {
			tel.sloBurn[i][w] = reg.Gauge("mzqos_cluster_slo_burn_rate",
				"Cluster burn rate per target and window: capacity-weighted measured over capacity-weighted budget.",
				target, telemetry.L("window", windows[w]))
		}
	}
	return tel
}

// publishSLO pushes a roll-up into the cluster SLO gauges.
func (t *clusterTelemetry) publishSLO(r *clusterSLORollup) {
	for i := range r.Targets {
		tgt := &r.Targets[i]
		t.sloBudget[i].Set(tgt.Budget)
		t.sloBurn[i][0].Set(tgt.BurnFast)
		t.sloBurn[i][1].Set(tgt.BurnSlow)
	}
	t.sloFiring.Set(float64(r.FiringShards))
}

// New builds a Coordinator over the given shard engines and publishes the
// initial health view.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Engines) == 0 {
		return nil, ErrConfig
	}
	route := routeRoundRobin
	name := cfg.Route
	switch cfg.Route {
	case "", RouteRoundRobin:
		name = RouteRoundRobin
	case RouteLeastLoaded:
		route = routeLeastLoaded
	case RouteAffinity:
		route = routeAffinity
	default:
		return nil, fmt.Errorf("%w: unknown route %q", ErrConfig, cfg.Route)
	}
	reps := cfg.Replicas
	if reps == 0 {
		reps = 1
	}
	if reps < 0 || reps > len(cfg.Engines) {
		return nil, fmt.Errorf("%w: %d replicas over %d shards", ErrConfig, reps, len(cfg.Engines))
	}
	budget := cfg.MigrateBudget
	if budget == 0 {
		budget = DefaultMigrateBudget
	}
	if budget < 0 {
		return nil, fmt.Errorf("%w: migrate budget %d", ErrConfig, cfg.MigrateBudget)
	}
	ledger := cfg.Ledger
	if ledger == nil {
		ledger = journal.NewLedger(journal.LedgerConfig{})
	}
	c := &Coordinator{
		route:      route,
		routeN:     name,
		reps:       reps,
		placement:  make(map[string][]int),
		admissions: ring.New[AdmissionRecord](admissionRingCap),
		migrate:    cfg.Migrate,
		migBudget:  budget,
		jnl:        cfg.Journal,
		ledger:     ledger,
		hist:       cfg.History,
		tel:        newClusterTelemetry(cfg.Registry),
	}
	if cfg.Migrate {
		// Suspended streams wait inflight for their sibling re-admission
		// so each logical stream keeps one lifetime ledger record.
		c.ledger.EnableInflight()
	}
	for i, eng := range cfg.Engines {
		if eng == nil {
			return nil, ErrConfig
		}
		c.shards = append(c.shards, &shard{id: i, eng: eng})
		c.all = append(c.all, i)
	}
	c.refreshView()
	return c, nil
}

// NumShards returns S.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Route returns the routing policy name.
func (c *Coordinator) Route() string { return c.routeN }

// Round returns the number of coordinator rounds executed.
func (c *Coordinator) Round() int { return int(c.round.Load()) }

// Tickets returns the open streams across all shards, summed from the
// engines' Health mirrors, so readers off the loop may call it.
func (c *Coordinator) Tickets() int {
	n := 0
	for _, s := range c.shards {
		n += s.eng.Health().Active
	}
	return n
}

// publishTickets sets the tickets gauge to the sum of the shards' own
// counts. The loop calls it wherever it changes a population: after an
// Open, a Close and a view refresh.
func (c *Coordinator) publishTickets() {
	n := 0
	for _, s := range c.shards {
		n += s.eng.Active()
	}
	c.tel.tickets.Set(float64(n))
}

// AddObject places an object on Replicas shards — striped round-robin
// from a moving cursor, mirroring how the paper stripes fragments over
// disks one level down — and stores it in each replica's catalog. An
// object the first replica rejects is not placed, is stored nowhere and
// does not move the cursor; every check a shard makes on the name and
// sizes alone rejects there. A name a later replica already holds (a
// catalog loaded into it out of band) is not placed either, but the
// replicas before it keep their copy.
func (c *Coordinator) AddObject(name string, sizes []float64) error {
	if _, ok := c.placement[name]; ok {
		return fmt.Errorf("cluster: %w: %q", engine.ErrDuplicateObject, name)
	}
	cands := make([]int, c.reps)
	for i := range cands {
		cands[i] = (c.placeCur + i) % len(c.shards)
	}
	for _, id := range cands {
		if err := c.shards[id].eng.AddObject(name, sizes); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", id, err)
		}
	}
	c.placeCur = (c.placeCur + 1) % len(c.shards)
	c.pmu.Lock()
	c.placement[name] = cands
	c.pmu.Unlock()
	return nil
}

// candidates returns the admission candidate shard ids for an object:
// its placement replicas, or every shard when the object was never
// placed through the coordinator (a catalog loaded into the shards out of
// band).
func (c *Coordinator) candidates(object string) []int {
	if cands, ok := c.placement[object]; ok {
		return cands
	}
	return c.all
}

// Open admits and materializes one stream of the object. The routing
// policy picks where among the object's candidate shards to start; the
// first candidate with room (hasRoom) opens the stream on its engine.
// When every candidate is full, Open returns ErrRejected. An engine error
// ends the open; an object no shard holds is such an error, reported by
// the engine that was asked, so it matches engine.ErrUnknownObject (the
// coordinator has no sentinel of its own for it).
func (c *Coordinator) Open(object string) (Handle, int, error) {
	cands := c.candidates(object)
	v := c.view.Load()
	n := len(cands)
	start := 0
	switch c.route {
	case routeRoundRobin:
		start = c.rr % n
		c.rr++
	case routeLeastLoaded:
		start = v.leastLoaded(c.shards, cands)
	case routeAffinity:
		start = int(fnv1a(object) % uint64(n))
	}
	for i := 0; i < n; i++ {
		id := cands[(start+i)%n]
		if !c.hasRoom(id, v) {
			continue
		}
		c.tel.admitted.Inc()
		sid, delay, err := c.shards[id].eng.Open(object)
		if err != nil {
			return Handle{Shard: -1}, 0, fmt.Errorf("cluster: shard %d: %w", id, err)
		}
		c.publishTickets()
		c.recordAdmission(AdmissionRecord{
			Object: object, Shard: id, Stream: sid, Delay: delay,
			Round: int(c.round.Load()), Route: c.routeN,
		})
		return Handle{Shard: id, ID: sid}, delay, nil
	}
	c.tel.rejected.Inc()
	return Handle{Shard: -1}, 0, ErrRejected
}

// hasRoom reports whether a shard's own count of open streams is below
// its capacity in the view — the §5 test N + 1 ≤ N_max, per shard. Open
// and the migration engine share it.
func (c *Coordinator) hasRoom(id int, v *view) bool {
	return int64(c.shards[id].eng.Active()) < v.capacity(id)
}

// Close stops a cluster stream early, releasing its slot.
func (c *Coordinator) Close(h Handle) error {
	if h.Shard < 0 || h.Shard >= len(c.shards) {
		return fmt.Errorf("cluster: %w: shard %d", engine.ErrUnknownStream, h.Shard)
	}
	if err := c.shards[h.Shard].eng.Close(h.ID); err != nil {
		return fmt.Errorf("cluster: shard %d: %w", h.Shard, err)
	}
	c.publishTickets()
	return nil
}

// recordAdmission appends to the bounded explainability ring.
func (c *Coordinator) recordAdmission(r AdmissionRecord) {
	c.ringMu.Lock()
	*c.admissions.Next() = r
	c.ringMu.Unlock()
}

// Admissions returns the retained admission records, oldest first.
func (c *Coordinator) Admissions() []AdmissionRecord {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	return c.admissions.AppendTo(make([]AdmissionRecord, 0, c.admissions.Len()))
}

// ShardRoundReport is one shard's outcome of a cluster round.
type ShardRoundReport struct {
	// Shard is the shard id.
	Shard int
	// Report is the shard engine's round report.
	Report engine.RoundReport
}

// RoundReport is the outcome of one cluster round: every shard's report,
// ordered by shard id.
type RoundReport struct {
	// Round is the executed coordinator round index.
	Round int
	// Shards holds one report per shard, ascending by shard id.
	Shards []ShardRoundReport
	// Glitches totals late or lost fragments across shards; Completed and
	// Evicted total retired streams.
	Glitches  int
	Completed int
	Evicted   int
	// Migrated counts evicted or failed-over streams re-admitted on a
	// sibling this round; MigrationFailed those abandoned after
	// exhausting retries; FailedOver streams drained off failed shards
	// into the migration queue. All zero unless Config.Migrate is set.
	Migrated        int
	MigrationFailed int
	FailedOver      int
}

// Step executes one round on every shard — shards sweep in parallel —
// then, with Config.Migrate, re-admits what the round shed and what failed
// shards hold, and refreshes the health view. The sweeps fan out
// over min(GOMAXPROCS, shards) workers, the caller being the first: one P
// spawns nothing, N Ps spawn N−1 goroutines. The go statements order each
// shard's Step after the loop's Opens, and stepWG.Wait orders the loop's
// next call after every Step. Reports are written by shard index, so a
// fixed per-shard seed set reproduces byte-identical cluster reports at
// any width.
func (c *Coordinator) Step() RoundReport {
	shards := make([]ShardRoundReport, len(c.shards))
	workers := min(runtime.GOMAXPROCS(0), len(c.shards))
	for w := 1; w < workers; w++ {
		c.stepWG.Add(1)
		go func(w int) {
			defer c.stepWG.Done()
			c.stepShards(w, workers, shards)
		}(w)
	}
	c.stepShards(0, workers, shards)
	c.stepWG.Wait()
	rep := RoundReport{Round: int(c.round.Load()), Shards: shards}
	for i := range rep.Shards {
		r := &rep.Shards[i].Report
		rep.Glitches += r.Glitches
		rep.Completed += len(r.Completed)
		rep.Evicted += len(r.Evicted)
	}
	if c.migrate {
		rep.Migrated, rep.MigrationFailed, rep.FailedOver = c.migrateRound(&rep)
	}
	round := c.round.Add(1)
	c.refreshView()
	// Record the round into the embedded history after every gauge of
	// this round (shard steps, migration, view refresh) has settled.
	c.hist.Sample(int(round))
	return rep
}

// stepShards is worker w of a round's fan-out: it steps shards w,
// w+workers, … and writes their reports by shard index.
func (c *Coordinator) stepShards(w, workers int, out []ShardRoundReport) {
	for i := w; i < len(c.shards); i += workers {
		s := c.shards[i]
		out[i] = ShardRoundReport{Shard: s.id, Report: s.eng.Step()}
	}
}

// Journal returns the cluster's shared event journal (nil when disabled).
func (c *Coordinator) Journal() *journal.Journal { return c.jnl }

// QoSLedger returns the shared promised-vs-delivered stream ledger: the
// one the coordinator was handed, or its own.
func (c *Coordinator) QoSLedger() *journal.Ledger { return c.ledger }

// Recalibrate re-derives every shard's admission limit from its observed
// workload (§5) and publishes a fresh view. Shards that decline (too few
// samples yet, degenerate moments) keep their current limits rather than
// failing the fleet. It returns how many shards' limits moved.
func (c *Coordinator) Recalibrate(minSamples int64) int {
	moved := 0
	for _, s := range c.shards {
		if old, now, err := s.eng.Recalibrate(minSamples); err == nil && old != now {
			moved++
		}
	}
	c.refreshView()
	return moved
}

// fnv1a hashes an object name (64-bit FNV-1a, allocation-free).
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
