package server

import (
	"fmt"

	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/slo"
)

// The server writes every event of its own timeline, here. The SLO audit,
// the flight recorder and the fault injector are handed no journal: they
// report a transition, a latch or an effect, and the round loop, which
// knows the round, the shard and the limits in force, records it.

// event starts e, the caller's zero Event, as an event of this server's
// timeline: its round and shard filled in, no disk and no transition
// pair. The caller fills in the rest and hands e to Append, which copies
// it once, into the journal's ring.
func (s *Server) event(e *journal.Event, kind journal.Kind) {
	e.Round, e.Kind, e.Shard, e.Disk, e.From, e.To = s.round, kind, s.shard, -1, -1, -1
}

// journalAdmit records an admission on the timeline, with the slotting
// delay charged here, and opens the stream's ledger record with the
// guarantee quoted right now: the stream's own fields and the limits'
// quote (the analytic bounds in force and the binding constraint), which
// the record points to.
func (s *Server) journalAdmit(st *stream, imported bool, lim *limits) {
	var e journal.Event
	s.event(&e, journal.KindAdmit)
	e.Stream, e.Object, e.Value = int64(st.id), st.obj.name, float64(st.start-s.round)
	if imported {
		e.Detail = "import"
	}
	seq := s.jnl.Append(&e)
	s.ledger.Admit(s.shard, int64(st.id), st.obj.name, s.round, st.delay, lim.quote, seq)
}

// journalEvict records a degraded-mode shed on the timeline. The ledger
// side happens in rememberEvicted (the suspend carries delivered stats).
func (s *Server) journalEvict(st *stream) {
	var e journal.Event
	s.event(&e, journal.KindEvict)
	e.Stream, e.Object = int64(st.id), st.obj.name
	s.jnl.Append(&e)
}

// journalLimitChange records a degrade/restore/recalibrate transition of
// the admission limit: From/To are the old and new N_max.
func (s *Server) journalLimitChange(kind journal.Kind, disk, oldLimit, newLimit int, detail string) {
	var e journal.Event
	s.event(&e, kind)
	e.Disk, e.From, e.To, e.Detail = disk, oldLimit, newLimit, detail
	s.jnl.Append(&e)
}

// sloKinds maps the alert states that are incidents to their event kinds.
// Aging back to Inactive is not one, so it stays off the timeline.
var sloKinds = map[slo.State]journal.Kind{
	slo.Pending:  journal.KindSLOPending,
	slo.Firing:   journal.KindSLOFiring,
	slo.Resolved: journal.KindSLOResolved,
}

// journalSLO records one target's alert transition with each window's
// violations of its population against its critical count. A firing
// also names the binding admission constraint in force: the quantity the
// measured tail just violated.
func (s *Server) journalSLO(idx int, te *slo.TargetEval) {
	kind, incident := sloKinds[te.State]
	if !incident {
		return
	}
	lim := s.lim.Load()
	var e journal.Event
	s.event(&e, kind)
	e.Disk, e.From, e.To = lim.bindDisk, int(te.From), int(te.State)
	e.Target, e.Value, e.Budget = slo.TargetName(idx), te.Fast.Rate(), te.Budget
	e.Detail = fmt.Sprintf("fast %d/%d critical %d, slow %d/%d critical %d",
		te.Fast.Violations, te.Fast.Population, slo.Critical(te.Fast.Population, te.Budget),
		te.Slow.Violations, te.Slow.Population, slo.Critical(te.Slow.Population, te.Budget))
	if te.State == slo.Firing {
		exp := &lim.explains[lim.bindDisk]
		e.Detail += fmt.Sprintf("; binding k=%d %s disk=%d", exp.BindingK, exp.Bound, lim.bindDisk)
	}
	s.jnl.Append(&e)
}

// freeze triggers the flight recorder and records the trigger that
// latched: the timeline names which incident the frozen history belongs
// to, cross-linked by the span sequence. Later triggers only count.
func (s *Server) freeze(reason string) {
	seq, latched := s.trc.Freeze(reason, s.round)
	if !latched {
		return
	}
	var e journal.Event
	s.event(&e, journal.KindFreeze)
	e.TraceSeq, e.Detail = seq, reason
	s.jnl.Append(&e)
}

// journalFaultEdges records a fault_inject or fault_clear for every disk
// whose effects changed activity between the previous round and this one,
// whose effects are effs. The injector is a pure function of (disk,
// round), so the edges need no state: the previous round is asked again,
// and two shards replaying one plan record identical edges. The caller
// checks for a journal and an injector.
func (s *Server) journalFaultEdges(effs []fault.Effects) {
	for d := range effs {
		was := fault.Identity()
		if s.round > 0 {
			was = s.inj.EffectsAt(d, s.round-1)
		}
		if effs[d].Active() == was.Active() {
			continue
		}
		kind, shown := journal.KindFaultInject, effs[d]
		if was.Active() {
			kind, shown = journal.KindFaultClear, was
		}
		var e journal.Event
		s.event(&e, kind)
		e.Disk, e.Detail = d, shown.String()
		s.jnl.Append(&e)
	}
}
