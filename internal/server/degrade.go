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
// glitches. The limits in force are always the healthy model evaluated
// under the effects the controller applied, so a Recalibrate during a
// standing fault keeps it in force, and a restore evaluates the healthy
// model as it then stands.
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

	streak  int             // consecutive rounds on this round's side: faulty ones positive, healthy ones negative
	applied []fault.Effects // the effects the limits in force answer, the healthy array until a fault is sustained (a copy: Step reuses its own)
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
// sweeps of Step, of whose disks faulty showed a fault. It debounces the
// fault timeline (After consecutive faulty or healthy rounds) and, once
// the effects it would answer differ from the ones applied — a sustained
// fault appears or changes shape, or the array has been healthy long
// enough to restore — puts the limits the healthy model sets under them
// in force. Returns the streams shed to a degraded limit, ascending.
func (s *Server) adaptToFaults(effs []fault.Effects, faulty int) []engine.Eviction {
	if !s.deg.enabled || s.inj == nil {
		return nil
	}
	if faulty > 0 {
		s.deg.streak = max(s.deg.streak, 0) + 1
	} else {
		s.deg.streak = min(s.deg.streak, 0) - 1
	}
	switch {
	case max(s.deg.streak, -s.deg.streak) < s.deg.after:
		return nil
	case faulty == 0:
		if !s.lim.Load().degraded {
			return nil
		}
		effs = healthyArray(len(effs))
	case slices.Equal(effs, s.deg.applied):
		return nil
	}
	return s.applyEffects(effs)
}

// applyEffects puts in force the limits the healthy model sets under
// effs. A degrade freezes the flight recorder before it journals the new
// limit and sheds each class's newest streams to it, unless a disk is
// down; a restore journals the limit, then freezes. On a modeling error
// the current limits are kept and the controller retries next round.
func (s *Server) applyEffects(effs []fault.Effects) []engine.Eviction {
	next, err := evaluateDisks(s.healthy, effs, s.cfg.Guarantee)
	if err != nil {
		return nil
	}
	cur := s.lim.Load()
	if next.degraded != cur.degraded {
		s.tel.degradeTransitions.Inc()
	}
	s.deg.applied = append(s.deg.applied[:0], effs...)
	s.install(next)
	if !next.degraded {
		s.journalLimitChange(journal.KindRestore, next.bindDisk, cur.nmax, next.nmax, "")
		s.freeze("restore")
		return nil
	}
	s.freeze("degrade")
	detail := ""
	if next.failed {
		detail = "disk_failed"
	}
	s.journalLimitChange(journal.KindDegrade, next.bindDisk, cur.nmax, next.nmax, detail)
	if next.failed {
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
