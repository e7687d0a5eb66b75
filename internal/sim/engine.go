package sim

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/ring"
	"mzqos/internal/workload"
)

// The simulated engine implements the shared shard contract.
var _ engine.Engine = (*Engine)(nil)

// Errors reported by the simulated engine. The admission and catalog
// conditions wrap the engine-level sentinels, so errors.Is matches either
// identity.
var (
	// ErrRejected is returned when admission control turns a stream away.
	ErrRejected = fmt.Errorf("sim: %w", engine.ErrRejected)
	// ErrUnknownObject is returned for opens of objects not in the catalog.
	ErrUnknownObject = fmt.Errorf("sim: %w", engine.ErrUnknownObject)
	// ErrUnknownStream is returned for operations on closed or unknown
	// streams.
	ErrUnknownStream = fmt.Errorf("sim: %w", engine.ErrUnknownStream)
	// ErrDuplicateObject is returned when an object name is already taken.
	ErrDuplicateObject = fmt.Errorf("sim: %w", engine.ErrDuplicateObject)
)

// EngineConfig assembles a simulated shard engine.
type EngineConfig struct {
	// Disk is the drive geometry, replicated NumDisks times (the paper's
	// homogeneous array, §2.1).
	Disk *disk.Geometry
	// NumDisks is the array width D.
	NumDisks int
	// Sizes is the fragment-size law requests draw from. Unlike the live
	// server, the simulated engine models load statistically: every
	// served fragment's size and placement are drawn fresh from this law,
	// and an object's stored sizes determine only its playback length.
	Sizes workload.SizeModel
	// RoundLength is the scheduling round length t in seconds.
	RoundLength float64
	// PerDiskLimit is the admission limit N_max per disk. The simulated
	// engine takes the limit as given (derive it with internal/model when
	// the analytic guarantee matters); engine capacity is D·PerDiskLimit.
	PerDiskLimit int
	// Seed makes the engine's service draws reproducible.
	Seed uint64
	// Faults optionally perturbs service with a deterministic fault plan,
	// resolved per (disk, round) exactly as the live server resolves it.
	Faults *fault.Plan
	// ShedOnDegrade makes Step evict the newest streams of any offset
	// class whose occupancy exceeds the in-force limit (mirroring the live
	// server's ShedNewest policy) instead of letting over-limit classes
	// drain by attrition. Evicted streams are reported in the round's
	// Evicted set and stay exportable for one migration window.
	ShedOnDegrade bool
}

func (c EngineConfig) validate() error {
	if c.Disk == nil || c.Sizes.Dist == nil || !(c.RoundLength > 0) ||
		c.NumDisks < 1 || c.PerDiskLimit < 1 {
		return ErrConfig
	}
	return nil
}

// simStream is one admitted simulated stream.
type simStream struct {
	name     string // catalog object, kept so the stream is exportable
	class    int    // offset class: reads disk (class+round) mod D
	start    int    // first service round
	next     int    // fragments consumed
	length   int    // playback length in rounds
	delay    int    // accumulated startup-delay credit (import slotting)
	glitches int    // late or lost fragments seen by this stream
}

// Engine is the lightweight simulated implementation of engine.Engine: a
// shard whose per-round service times come from the Monte-Carlo sweep
// kernel instead of a live catalog of placed fragments. It keeps the
// server's admission discipline — per-offset-class slots capped at
// N_max, streams reading disk (class+round) mod D — but draws each
// round's placements and sizes fresh from the workload law, which makes
// admitting and stepping hundreds of thousands of streams cheap enough
// to exercise fleet-scale coordination.
//
// Mutating calls follow the engine contract (single goroutine); Health
// reads only atomic state and may be called concurrently.
type Engine struct {
	cfg     EngineConfig
	inj     *fault.Injector
	rng     *rand.Rand
	objects map[string]int // name → playback length in rounds
	streams map[engine.StreamID]*simStream
	classes [][]engine.StreamID // per class, ascending StreamID
	nextID  engine.StreamID
	round   int

	// Heartbeat state, mirrored atomically for concurrent Health readers.
	hActive   atomic.Int64
	hLimit    atomic.Int64
	hRound    atomic.Int64
	hDegraded atomic.Bool
	hFailed   atomic.Bool

	// Evicted-stream states: bounded FIFO so a coordinator can still
	// export (and so migrate) a stream shed by ShedOnDegrade.
	evicted ring.Keyed[engine.StreamID, engine.StreamState]

	sc      roundScratch
	lateFor []bool
	ids     []engine.StreamID // per-disk due-stream scratch
}

// NewEngine builds a simulated shard engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inj, err := func() (*fault.Injector, error) {
		if cfg.Faults == nil {
			return nil, nil
		}
		return fault.NewInjector(*cfg.Faults, 0)
	}()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e := &Engine{
		cfg:     cfg,
		inj:     inj,
		rng:     dist.NewRand(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15),
		objects: make(map[string]int),
		streams: make(map[engine.StreamID]*simStream),
		classes: make([][]engine.StreamID, cfg.NumDisks),
		evicted: ring.NewKeyed[engine.StreamID, engine.StreamState](engine.RetainedStreams),
	}
	e.hLimit.Store(int64(cfg.PerDiskLimit))
	return e, nil
}

// AddObject stores a continuous object. Only the playback length (one
// round per fragment) is retained; sizes must still be positive so the
// catalog vocabulary matches the live server's.
func (e *Engine) AddObject(name string, sizes []float64) error {
	if name == "" || len(sizes) == 0 {
		return ErrConfig
	}
	if _, ok := e.objects[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateObject, name)
	}
	for i, sz := range sizes {
		if !(sz > 0) {
			return fmt.Errorf("%w: fragment %d has size %v", ErrConfig, i, sz)
		}
	}
	e.objects[name] = len(sizes)
	return nil
}

// AddSyntheticObject stores an object of the given playback length.
func (e *Engine) AddSyntheticObject(name string, rounds int) error {
	if rounds < 1 {
		return ErrConfig
	}
	sizes := make([]float64, rounds)
	for i := range sizes {
		sizes[i] = 1
	}
	return e.AddObject(name, sizes)
}

// Open admits a new stream on the named object, or returns ErrRejected
// when every offset class is at the admission limit. Mirroring the live
// server, the least-loaded class reachable within the next D rounds wins
// (smallest delay on ties), so load stays balanced across disks.
func (e *Engine) Open(name string) (id engine.StreamID, startupDelay int, err error) {
	return e.admit(engine.StreamState{Object: name})
}

// admit is the engine's one admission path: Open admits an object's zero
// state, ImportStream a stream mid-playback. A position outside the
// object is a configuration error; no admissible class is ErrRejected.
func (e *Engine) admit(state engine.StreamState) (engine.StreamID, int, error) {
	length, ok := e.objects[state.Object]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownObject, state.Object)
	}
	if state.Position < 0 || state.Position >= length {
		return 0, 0, fmt.Errorf("%w: import position %d outside %q (%d rounds)",
			ErrConfig, state.Position, state.Object, length)
	}
	bestClass := e.leastLoadedClass()
	if bestClass < 0 {
		return 0, 0, ErrRejected
	}
	// The stream starts in the next round its class's disk comes around —
	// immediately, since class c reads disk (c+round) mod D every round.
	e.nextID++
	e.streams[e.nextID] = &simStream{
		name:     state.Object,
		class:    bestClass,
		start:    e.round,
		next:     state.Position,
		length:   length,
		delay:    state.Delay,
		glitches: state.Glitches,
	}
	e.classes[bestClass] = append(e.classes[bestClass], e.nextID)
	e.hActive.Store(int64(len(e.streams)))
	return e.nextID, 0, nil
}

// leastLoadedClass returns the offset class a new or imported stream
// joins, or -1 when every class is at the admission limit. Classes are
// statistically interchangeable here (placements are drawn fresh each
// round), so the admissible start slots are simply all D classes: the
// least loaded wins, lowest class index on ties.
func (e *Engine) leastLoadedClass() int {
	bestClass, bestCount := -1, int(e.hLimit.Load())
	for c, ids := range e.classes {
		if n := len(ids); n < bestCount {
			bestCount = n
			bestClass = c
		}
	}
	return bestClass
}

// Close stops a stream early, releasing its admission slot.
func (e *Engine) Close(id engine.StreamID) error {
	st, ok := e.streams[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownStream, id)
	}
	e.removeFromClass(st.class, id)
	delete(e.streams, id)
	e.hActive.Store(int64(len(e.streams)))
	return nil
}

func (e *Engine) removeFromClass(class int, id engine.StreamID) {
	ids := e.classes[class]
	for i, v := range ids {
		if v == id {
			e.classes[class] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// Step executes one simulated round: each offset class's streams read
// from disk (class+round) mod D, and each loaded disk serves its due
// requests through the Monte-Carlo sweep kernel under that disk's fault
// effects for the round. Per-stream glitch outcomes map back onto the
// class's streams in ascending StreamID order, so a fixed Seed (plus
// fault plan) reproduces byte-identical reports.
func (e *Engine) Step() engine.RoundReport {
	d := e.cfg.NumDisks
	rep := engine.RoundReport{Round: e.round, Disks: make([]engine.DiskRoundReport, d)}
	rep.Evicted = e.shedToLimit()
	base := Config{
		Disk:        e.cfg.Disk,
		Sizes:       e.cfg.Sizes,
		RoundLength: e.cfg.RoundLength,
	}
	var done []engine.StreamID
	for dd := 0; dd < d; dd++ {
		class := ((dd-e.round)%d + d) % d
		// Gather the due streams of the class (already ascending by id).
		e.ids = e.ids[:0]
		for _, id := range e.classes[class] {
			if st := e.streams[id]; e.round >= st.start {
				e.ids = append(e.ids, id)
			}
		}
		eff := e.inj.EffectsAt(dd, e.round)
		dr := &rep.Disks[dd]
		dr.Faulty = eff.Active()
		dr.Down = eff.Failed
		n := len(e.ids)
		if n == 0 {
			continue
		}
		dr.Requests = n
		cfg := base
		cfg.N = n
		cfg.FaultDisk = dd
		if cap(e.lateFor) < n {
			e.lateFor = make([]bool, n)
		}
		late := e.lateFor[:n]
		readErr := func(pos, attempt int) bool {
			return e.inj.ReadError(dd, e.round, pos, attempt)
		}
		_, tot := simulateRound(cfg, eff, e.round, readErr, e.rng, &e.sc, late)
		dr.Busy = tot.Busy
		dr.Seek, dr.Rotation, dr.Transfer = tot.Seek, tot.Rotation, tot.Transfer
		dr.Retries, dr.Lost = tot.Retries, tot.Lost
		glitched := 0
		for i, id := range e.ids {
			st := e.streams[id]
			if late[i] {
				glitched++
				st.glitches++
			}
			st.next++
			if st.next >= st.length {
				done = append(done, id)
			}
		}
		rep.Glitches += glitched
		// Glitches are late ∪ lost per stream and the kernel totals the
		// lost; the late-only count is their difference.
		dr.Late = glitched - tot.Lost
	}
	for _, id := range done {
		st := e.streams[id]
		e.removeFromClass(st.class, id)
		delete(e.streams, id)
	}
	rep.Completed = done
	e.hActive.Store(int64(len(e.streams)))
	e.round++
	e.hRound.Store(int64(e.round))
	return rep
}

// Run executes n rounds and returns an aggregate summary.
func (e *Engine) Run(n int) engine.RunSummary {
	var sum engine.RunSummary
	sum.FirstRound = e.round
	for i := 0; i < n; i++ {
		sum.Observe(e.Step())
	}
	sum.DiskTime = float64(n) * e.cfg.RoundLength * float64(e.cfg.NumDisks)
	return sum
}

// Recalibrate restores the configured admission limit and clears any
// degraded override. The simulated engine has no observed-moment solver
// (its workload law is the configuration), so recalibration is the
// identity refresh back to EngineConfig.PerDiskLimit.
func (e *Engine) Recalibrate(minSamples int64) (oldLimit, newLimit int, err error) {
	old := int(e.hLimit.Load())
	e.hLimit.Store(int64(e.cfg.PerDiskLimit))
	e.hDegraded.Store(false)
	e.hFailed.Store(false)
	return old, e.cfg.PerDiskLimit, nil
}

// Degrade shrinks the in-force admission limit to perDisk (clamped at 0)
// and marks the engine degraded — the simulated analogue of the live
// server's fault-degradation controller, convenient for exercising
// cluster shed/reroute behavior. Recalibrate restores the configured
// limit. Existing streams are not evicted; admission simply stays closed
// for classes above the new limit until they drain.
func (e *Engine) Degrade(perDisk int) {
	if perDisk < 0 {
		perDisk = 0
	}
	e.hLimit.Store(int64(perDisk))
	e.hDegraded.Store(true)
}

// SetFailed marks (or clears) full shard failure: admission closes
// (limit 0) and Health reports Failed, telling a cluster coordinator to
// fail the active set over to sibling replicas — the simulated analogue
// of a disk failure closing the live server's admission. Distinct from
// Degrade(0), which merely zeroes capacity while streams ride out the
// fault. Recalibrate clears both.
func (e *Engine) SetFailed(failed bool) {
	e.hFailed.Store(failed)
	if failed {
		e.hLimit.Store(0)
		e.hDegraded.Store(true)
	}
}

// NumDisks returns the array width D.
func (e *Engine) NumDisks() int { return e.cfg.NumDisks }

// PerDiskLimit returns the admission limit N_max per disk in force.
func (e *Engine) PerDiskLimit() int { return int(e.hLimit.Load()) }

// Capacity returns the engine-wide admission limit D·N_max.
func (e *Engine) Capacity() int { return e.cfg.NumDisks * int(e.hLimit.Load()) }

// Active returns the number of open streams.
func (e *Engine) Active() int { return int(e.hActive.Load()) }

// Round returns the next round index.
func (e *Engine) Round() int { return e.round }

// Degraded reports whether a Degrade override is in force.
func (e *Engine) Degraded() bool { return e.hDegraded.Load() }

// FaultEffectsAt resolves the configured fault plan at a round (identity
// effects when no plan is configured).
func (e *Engine) FaultEffectsAt(round int) []fault.Effects {
	effs := make([]fault.Effects, e.cfg.NumDisks)
	for dd := range effs {
		effs[dd] = e.inj.EffectsAt(dd, round)
	}
	return effs
}

// Health returns a concurrent-safe load/limit snapshot.
func (e *Engine) Health() engine.Health {
	limit := int(e.hLimit.Load())
	return engine.Health{
		Active:       int(e.hActive.Load()),
		PerDiskLimit: limit,
		Capacity:     limit * e.cfg.NumDisks,
		Round:        int(e.hRound.Load()),
		Degraded:     e.hDegraded.Load(),
		Failed:       e.hFailed.Load(),
	}
}
