package server

import (
	"slices"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
)

// DefaultDegradeAfter is the number of consecutive faulty (or healthy)
// rounds the controller waits before degrading (or restoring) when
// DegradeConfig.After is zero. Reacting on the first faulty round would
// churn the admission limit on every transient; three rounds is long
// enough to call a fault sustained and short enough to bound how many
// guarantee-violating rounds accumulate.
const DefaultDegradeAfter = 3

// ShedPolicy selects which streams of an over-occupied offset class to
// evict when the degraded admission limit drops below the class's current
// occupancy. ids holds the class's active streams in admission order
// (ascending StreamID, i.e. oldest first) and excess how many must go for
// the class to fit the new limit. The returned ids are evicted; returning
// fewer leaves the class over the limit (it then drains by attrition like
// a recalibration shrink). Unknown ids are ignored.
type ShedPolicy func(class int, ids []StreamID, excess int) []StreamID

// ShedNewest is the default policy: evict the most recently admitted
// streams first, preserving the service promise made to the oldest
// clients (the multipath-streaming literature's "last in, first shed").
func ShedNewest(_ int, ids []StreamID, excess int) []StreamID {
	if excess >= len(ids) {
		return ids
	}
	return ids[len(ids)-excess:]
}

// ShedNone disables eviction: the degraded limit still closes admission,
// but running streams ride out the fault (and its glitches) until their
// classes drain by attrition.
func ShedNone(int, []StreamID, int) []StreamID { return nil }

// DegradeConfig controls the server's reaction to sustained faults. With
// Enabled false (the default) faults still perturb service, but the
// admission limit never moves — the configured guarantee is silently
// violated, which is what BoundTightness then reports.
type DegradeConfig struct {
	// Enabled turns the degraded-mode controller on.
	Enabled bool
	// After is the number of consecutive faulty rounds before the server
	// re-derives its limits against the degraded disks, and of consecutive
	// healthy rounds before it restores them (0 = DefaultDegradeAfter).
	After int
	// Policy selects the streams to shed when the degraded limit drops
	// below a class's occupancy (nil = ShedNewest).
	Policy ShedPolicy
	// EvictOnFailure extends shedding to full disk failures. By default a
	// failed disk only closes admission (limit 0) while running streams
	// ride out the outage, since evicting every client for a transient
	// failure is usually worse than the glitches.
	EvictOnFailure bool
}

// degradeState tracks the controller between rounds.
type degradeState struct {
	enabled        bool
	after          int
	policy         ShedPolicy
	evictOnFailure bool

	dirty, clean int             // consecutive faulty / healthy rounds seen
	applied      []fault.Effects // the effects the current limits model (a copy: Step reuses its own)
	base         *limits         // healthy limits saved at the first degradation, installed again on recovery
}

// Degraded reports whether degraded admission limits are currently in
// force.
func (s *Server) Degraded() bool { return s.lim.Load().degraded }

// FaultPlan returns a copy of the configured fault schedule (empty when
// no faults are configured).
func (s *Server) FaultPlan() fault.Plan { return s.inj.Plan() }

// FaultEffectsAt returns the per-disk fault effects of the given round
// under the configured plan. Safe for concurrent use (the injector is
// immutable), which is what the mzserver /faults endpoint relies on.
func (s *Server) FaultEffectsAt(round int) []fault.Effects {
	effs := make([]fault.Effects, len(s.geoms))
	for d := range effs {
		effs[d] = s.inj.EffectsAt(d, round)
	}
	return effs
}

// adaptToFaults is the per-round degraded-mode controller, run after the
// sweeps of Step. It debounces the fault timeline (After consecutive
// rounds), re-derives the admission limits against the degraded hardware
// description when a sustained fault appears or changes shape, sheds
// streams to the new limit under the configured policy, and restores the
// healthy limits once the faults have cleared. Returns the evicted
// streams, ascending.
func (s *Server) adaptToFaults(effs []fault.Effects) []StreamID {
	if !s.deg.enabled || s.inj == nil {
		return nil
	}
	any := false
	for _, e := range effs {
		if e.Active() {
			any = true
			break
		}
	}
	if any {
		s.deg.dirty++
		s.deg.clean = 0
	} else {
		s.deg.clean++
		s.deg.dirty = 0
	}

	switch {
	case any && s.deg.dirty >= s.deg.after:
		if slices.Equal(effs, s.deg.applied) {
			return nil
		}
		return s.applyDegraded(effs)
	case !any && s.lim.Load().degraded && s.deg.clean >= s.deg.after:
		s.restoreHealthy()
	}
	return nil
}

// applyDegraded re-derives the per-disk admission models against the
// degraded geometries (inflated service-time moments) and sheds to the
// new limit. On a modeling error the current limits are kept and the
// controller retries next round.
func (s *Server) applyDegraded(effs []fault.Effects) []StreamID {
	geoms := make([]*disk.Geometry, len(s.geoms))
	failed := false
	for i, g := range s.geoms {
		if effs[i].Failed {
			// A failed disk has no finite service model; evaluate the rest
			// of the array and force the limit to zero below.
			failed = true
			geoms[i] = g
			continue
		}
		dg, err := fault.DegradeGeometry(g, effs[i])
		if err != nil {
			return nil
		}
		geoms[i] = dg
	}
	next, err := evaluateDisks(geoms, s.cfg.Sizes, s.cfg.RoundLength, s.cfg.Guarantee)
	if err != nil {
		return nil
	}
	next.degraded, next.failed = true, failed
	if failed {
		// Round-robin striping routes every stream over every disk, so a
		// failed disk leaves no admissible load.
		next.nmax = 0
	}
	cur := s.lim.Load()
	if !cur.degraded {
		// A copy, both because install completes the value it is handed and
		// because a Recalibrate under a standing failure leaves failed set.
		base := *cur
		base.failed = false
		s.deg.base = &base
		s.tel.degradeTransitions.Inc()
	}
	s.deg.applied = append(s.deg.applied[:0], effs...)
	s.install(next)
	s.freeze("degrade")
	detail := ""
	if failed {
		detail = "disk_failed"
	}
	s.journalLimitChange(journal.KindDegrade, next.bindDisk, cur.nmax, next.nmax, detail)
	if s.log != nil {
		s.log.Warn("degraded admission limits applied",
			"round", s.round,
			"nmax", next.nmax,
			"binding_disk", next.bindDisk,
			"disk_failed", failed,
		)
	}

	if failed && !s.deg.evictOnFailure {
		return nil
	}
	return s.shedToLimit()
}

// shedToLimit evicts streams from every offset class whose occupancy
// exceeds the current limit, as chosen by the shed policy. Evicted
// streams retire un-done (their stats remain queryable like any close).
func (s *Server) shedToLimit() []StreamID {
	var evicted []StreamID
	nmax := s.lim.Load().nmax
	for class := range s.classes {
		n := int(s.classes[class].Load())
		excess := n - nmax
		if excess <= 0 {
			continue
		}
		ids := make([]StreamID, 0, n)
		for _, st := range s.active { // ascending id, as ShedPolicy expects
			if st.offset == class {
				ids = append(ids, st.id)
			}
		}
		for _, id := range s.deg.policy(class, ids, excess) {
			i, ok := s.find(id)
			if !ok || s.active[i].offset != class {
				continue
			}
			st := s.active[i]
			s.journalEvict(st)
			s.rememberEvicted(st)
			s.retire(i)
			s.tel.evictions.Inc()
			evicted = append(evicted, id)
		}
	}
	slices.Sort(evicted)
	return evicted
}

// restoreHealthy reinstates the limits saved at the first degradation
// once the fault timeline has been clean for the debounce window.
func (s *Server) restoreHealthy() {
	oldLimit := s.lim.Load().nmax
	next := s.deg.base
	s.deg.base, s.deg.applied = nil, nil
	s.install(next)
	s.journalLimitChange(journal.KindRestore, next.bindDisk, oldLimit, next.nmax, "")
	s.tel.degradeTransitions.Inc()
	s.freeze("restore")
	if s.log != nil {
		s.log.Info("healthy admission limits restored",
			"round", s.round,
			"nmax", next.nmax,
		)
	}
}
