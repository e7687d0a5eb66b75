package server

import "mzqos/internal/slo"

// SLO audit wiring: the round loop feeds every sweep into the auditor
// (observeSweep → ObserveDisk) and evaluates both targets once per round
// (Step → auditSLO). Every pending, firing and resolved alert is one
// journal event (journalSLO); a firing one names the binding admission
// constraint, so it is the recalibration hint: the measured tail
// persistently exceeding the analytic bound means the model the limits
// were derived from no longer matches the hardware or the workload. A
// firing also freezes the flight recorder and bumps the mzqos_slo_*
// series.

// sloFreezeReasons are the flight-recorder freeze reasons of a firing, by
// target index (constants so the trigger path stays allocation-free).
var sloFreezeReasons = [2]string{"slo_late", "slo_glitch"}

// SLOStatus returns the audit snapshot served at /slo. Safe to call
// concurrently with the round loop; a disabled audit reports
// Enabled=false.
func (s *Server) SLOStatus() slo.Status { return s.sloAud.Status() }

// SLOAuditor exposes the auditor (nil when disabled) for tests and
// integrations.
func (s *Server) SLOAuditor() *slo.Auditor { return s.sloAud }

// auditSLO closes the round for the audit: finalize every disk's window,
// test both targets, update the mzqos_slo_* series, and record and
// react to alert transitions. Every slo event of the round reaches the
// journal before any reaction to one does (a firing's freeze). Runs on
// the loop thread at the end of Step; steady state allocates nothing
// (gauge stores are atomic, transitions are rare).
func (s *Server) auditSLO() {
	if s.sloAud == nil {
		return
	}
	ev := s.sloAud.EndRound()
	targets := [2]*slo.TargetEval{&ev.Late, &ev.Glitch}
	for i, te := range targets {
		st := &s.tel.slo
		st.budget[i].Set(te.Budget)
		st.measured[i][0].Set(te.Fast.Rate())
		st.measured[i][1].Set(te.Slow.Rate())
		st.state[i].Set(float64(te.State))
	}
	if !ev.Late.Transition && !ev.Glitch.Transition {
		return
	}
	for i, te := range targets {
		if te.Transition {
			s.journalSLO(i, te)
		}
	}
	for i, te := range targets {
		if te.Transition {
			s.onSLOTransition(i, te)
		}
	}
}

// onSLOTransition reacts to one target's alert state change on the loop
// thread.
func (s *Server) onSLOTransition(idx int, te *slo.TargetEval) {
	switch te.State {
	case slo.Firing:
		s.tel.slo.fired[idx].Inc()
		// Preserve the rounds that violated the bound: freeze the flight
		// recorder (first trigger latches; later triggers only count).
		s.freeze(sloFreezeReasons[idx])
	case slo.Resolved:
		s.tel.slo.resolved[idx].Inc()
	}
}
