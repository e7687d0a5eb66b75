package server

import (
	"cmp"
	"slices"

	"mzqos/internal/engine"
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

// DegradeConfig controls the server's reaction to sustained faults. With
// Enabled false (the default) faults still perturb service, but the
// admission limit never moves — the configured guarantee is silently
// violated, which is what BoundTightness then reports. With it on, a
// degraded limit sheds each offset class's newest streams down to it,
// keeping the promise made to the oldest clients (the multipath-streaming
// literature's "last in, first shed"), while a failed disk only closes
// admission (limit 0) and running streams ride out the outage, since
// evicting every client for a transient failure is usually worse than the
// glitches.
type DegradeConfig struct {
	// Enabled turns the degraded-mode controller on.
	Enabled bool
	// After is the number of consecutive faulty rounds before the server
	// re-derives its limits against the degraded disks, and of consecutive
	// healthy rounds before it restores them (0 = DefaultDegradeAfter).
	After int
}

// degradeState tracks the controller between rounds.
type degradeState struct {
	enabled bool
	after   int

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
	effs := make([]fault.Effects, s.cfg.NumDisks)
	for d := range effs {
		effs[d] = s.inj.EffectsAt(d, round)
	}
	return effs
}

// adaptToFaults is the per-round degraded-mode controller, run after the
// sweeps of Step. It debounces the fault timeline (After consecutive
// rounds), re-derives the admission limits against the degraded hardware
// description when a sustained fault appears or changes shape, sheds each
// class's newest streams to the new limit, and restores the healthy
// limits once the faults have cleared. Returns the evicted
// streams, ascending.
func (s *Server) adaptToFaults(effs []fault.Effects) []engine.Eviction {
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

// applyDegraded re-derives the admission limits with each disk's model
// under its effects (the healthy model's transform of T_N) and sheds to
// the new limit. On a modeling error the current limits are kept and the
// controller retries next round.
func (s *Server) applyDegraded(effs []fault.Effects) []engine.Eviction {
	next, err := evaluateDisks(s.healthy, effs, s.cfg.Guarantee)
	if err != nil {
		return nil
	}
	failed := slices.ContainsFunc(effs, func(e fault.Effects) bool { return e.Failed })
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

	if failed {
		return nil
	}
	return s.shedToLimit()
}

// shedToLimit evicts the newest streams of every offset class whose
// occupancy exceeds the current limit, oldest of them first, and returns
// them with their resumable state, ascending. Evicted streams retire
// un-done (their stats remain queryable like any close).
func (s *Server) shedToLimit() []engine.Eviction {
	var evicted []engine.Eviction
	nmax := s.lim.Load().nmax
	for class := range s.classes {
		// active is id-ascending: walk back over the class's excess
		// newest streams, then evict them in order.
		i := len(s.active)
		for excess := int(s.classes[class].Load()) - nmax; excess > 0; {
			i--
			if int(s.active[i].offset) == class {
				excess--
			}
		}
		for i < len(s.active) {
			st := &s.active[i]
			if int(st.offset) != class {
				i++
				continue
			}
			s.journalEvict(st)
			evicted = append(evicted, s.suspendEvicted(st))
			s.retire(i)
			s.tel.evictions.Inc()
		}
	}
	slices.SortFunc(evicted, func(a, b engine.Eviction) int { return cmp.Compare(a.ID, b.ID) })
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
}
