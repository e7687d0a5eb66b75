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

// Journal returns the event journal this server emits to (nil when
// journalling is disabled). In cluster mode every shard shares one.
func (s *Server) Journal() *journal.Journal { return s.jnl }

// QoSLedger returns the promised-vs-delivered stream ledger (nil when
// disabled).
func (s *Server) QoSLedger() *journal.Ledger { return s.ledger }

// Shard returns the cluster shard id this server labels its journal
// events with (0 standalone).
func (s *Server) Shard() int { return s.shard }

// journalAdmit records an admission on the timeline and opens the
// stream's ledger record with the guarantee quoted right now: the
// analytic bounds of the limits in force plus the binding constraint from
// the admission explanation of the disk that set N_max.
func (s *Server) journalAdmit(st *stream, imported bool, lim *limits) {
	if s.jnl == nil && s.ledger == nil {
		return
	}
	detail := ""
	if imported {
		detail = "import"
	}
	seq := s.jnl.Append(journal.Event{
		Round:  s.round,
		Kind:   journal.KindAdmit,
		Shard:  s.shard,
		Disk:   -1,
		Stream: int64(st.id),
		Object: st.obj.name,
		From:   -1,
		To:     -1,
		Detail: detail,
	})
	if s.ledger == nil {
		return
	}
	exp := &lim.explains[lim.bindDisk]
	s.ledger.Admit(s.shard, int64(st.id), journal.Promise{
		Object:       st.obj.name,
		Shard:        s.shard,
		Round:        s.round,
		SlotDelay:    st.delay,
		BoundLate:    lim.boundLate,
		BoundGlitch:  lim.boundGlitch,
		BindingDisk:  lim.bindDisk,
		BindingK:     exp.BindingK,
		BindingBound: exp.Bound,
		Theta:        exp.Theta,
	}, seq)
}

// journalEvict records a degraded-mode shed on the timeline. The ledger
// side happens in rememberEvicted (the suspend carries delivered stats).
func (s *Server) journalEvict(st *stream) {
	if s.jnl == nil {
		return
	}
	s.jnl.Append(journal.Event{
		Round:  s.round,
		Kind:   journal.KindEvict,
		Shard:  s.shard,
		Disk:   -1,
		Stream: int64(st.id),
		Object: st.obj.name,
		From:   -1,
		To:     -1,
	})
}

// journalLimitChange records a degrade/restore/recalibrate transition of
// the admission limit: From/To are the old and new N_max.
func (s *Server) journalLimitChange(kind journal.Kind, disk, oldLimit, newLimit int, detail string) {
	if s.jnl == nil {
		return
	}
	s.jnl.Append(journal.Event{
		Round:  s.round,
		Kind:   kind,
		Shard:  s.shard,
		Disk:   disk,
		From:   oldLimit,
		To:     newLimit,
		Detail: detail,
	})
}

// journalSLO records one target's alert transition entering Pending,
// Firing or Resolved (aging back to Inactive is not an incident, so it
// stays off the timeline). A firing names the binding admission
// constraint in force: the quantity the measured tail just violated.
func (s *Server) journalSLO(idx int, te *slo.TargetEval) {
	if s.jnl == nil {
		return
	}
	var kind journal.Kind
	switch te.State {
	case slo.Pending:
		kind = journal.KindSLOPending
	case slo.Firing:
		kind = journal.KindSLOFiring
	case slo.Resolved:
		kind = journal.KindSLOResolved
	default:
		return
	}
	lim := s.lim.Load()
	e := journal.Event{
		Round:  s.round,
		Kind:   kind,
		Shard:  s.shard,
		Disk:   lim.bindDisk,
		From:   int(te.From),
		To:     int(te.State),
		Target: slo.TargetName(idx),
		Value:  te.MeasuredFast,
		Budget: te.Budget,
	}
	if kind == journal.KindSLOFiring {
		exp := &lim.explains[lim.bindDisk]
		e.Detail = fmt.Sprintf("binding k=%d %s disk=%d", exp.BindingK, exp.Bound, lim.bindDisk)
	}
	s.jnl.Append(e)
}

// freeze triggers the flight recorder and records the trigger that
// latched: the timeline names which incident the frozen history belongs
// to, cross-linked by the span sequence. Later triggers only count.
func (s *Server) freeze(reason string) {
	seq, latched := s.trc.Freeze(reason, s.round)
	if !latched {
		return
	}
	s.jnl.Append(journal.Event{
		Round:    s.round,
		Kind:     journal.KindFreeze,
		Shard:    s.shard,
		Disk:     -1,
		From:     -1,
		To:       -1,
		TraceSeq: seq,
		Detail:   reason,
	})
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
		s.jnl.Append(journal.Event{
			Round:  s.round,
			Kind:   kind,
			Shard:  s.shard,
			Disk:   d,
			From:   -1,
			To:     -1,
			Detail: shown.String(),
		})
	}
}
