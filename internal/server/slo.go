package server

import (
	"fmt"

	"mzqos/internal/slo"
)

// SLO audit wiring: the round loop feeds every sweep into the auditor
// (observeSweep → ObserveDisk) and evaluates both targets once per round
// (Step → auditSLO). A Firing alert freezes the flight recorder, bumps
// the mzqos_slo_* series, and publishes a recalibration hint through
// AdmissionStatus — the measured tail persistently exceeding the
// analytic bound means the model the limits were derived from no longer
// matches the hardware or the workload.

// sloFreezeReasons are the flight-recorder freeze reasons of a firing, by
// target index (constants so the trigger path stays allocation-free).
var sloFreezeReasons = [2]string{"slo_late", "slo_glitch"}

// SLOHint is a recalibration hint: one target's bound was violated over
// an audit window, with the binding admission constraint alongside the
// measured-vs-analytic numbers, so an operator (or a future cluster
// recalibration scheduler) can see exactly which quoted quantity broke.
type SLOHint struct {
	// Target is the violated target (slo.TargetLate or slo.TargetGlitch);
	// Round the round the alert fired in.
	Target string `json:"target"`
	Round  int    `json:"round"`
	// WindowRounds is the fast window the measurement comes from; Count
	// its violations of its population, which reached Critical, the
	// count at which the window rejects Budget, the analytic bound, at
	// slo.Alpha. Measured is the windowed estimate, Violations/Population.
	WindowRounds int `json:"window_rounds"`
	slo.Count
	Critical int64   `json:"critical"`
	Measured float64 `json:"measured"`
	Budget   float64 `json:"budget"`
	// BindingDisk and BindingK locate the admission constraint the limit
	// came from (k = N_max+1 on the binding disk); BindingBound names the
	// bound ("late" or "glitch") that capped it.
	BindingDisk  int    `json:"binding_disk"`
	BindingK     int    `json:"binding_k"`
	BindingBound string `json:"binding_bound"`
	// Message is the rendered operator-facing hint.
	Message string `json:"message"`
}

// SLOStatus returns the audit snapshot served at /slo. Safe to call
// concurrently with the round loop; a disabled audit reports
// Enabled=false.
func (s *Server) SLOStatus() slo.Status { return s.sloAud.Status() }

// SLOAuditor exposes the auditor (nil when disabled) for tests and
// integrations.
func (s *Server) SLOAuditor() *slo.Auditor { return s.sloAud }

// SLOHints returns the active recalibration hints, one per target whose
// alert is currently Firing. Safe for concurrent use with the round loop.
func (s *Server) SLOHints() []SLOHint {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	return append([]SLOHint(nil), s.sloHints...)
}

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
	target := slo.TargetName(idx)
	switch te.State {
	case slo.Firing:
		s.tel.slo.fired[idx].Inc()
		// Preserve the rounds that violated the bound: freeze the flight
		// recorder (first trigger latches; later triggers only count).
		s.freeze(sloFreezeReasons[idx])
		s.setSLOHint(s.buildSLOHint(target, te))
	case slo.Resolved:
		s.tel.slo.resolved[idx].Inc()
		s.clearSLOHint(target)
	}
}

// buildSLOHint assembles the recalibration hint for a fired target from
// the limits in force.
func (s *Server) buildSLOHint(target string, te *slo.TargetEval) SLOHint {
	lim := s.lim.Load()
	exp := &lim.explains[lim.bindDisk]
	h := SLOHint{
		Target:       target,
		Round:        s.round,
		WindowRounds: s.sloAud.Config().FastWindow,
		Count:        te.Fast,
		Critical:     slo.Critical(te.Fast.Population, te.Budget),
		Measured:     te.Fast.Rate(),
		Budget:       te.Budget,
		BindingDisk:  lim.bindDisk,
		BindingK:     exp.BindingK,
		BindingBound: exp.Bound,
	}
	h.Message = fmt.Sprintf(
		"%s: %d violations of %d over the last %d rounds reach the critical count %d of analytic bound %.3g at alpha %g (measured %.3g); binding k=%d (%s bound, disk %d) — model may be miscalibrated, consider Recalibrate",
		target, h.Violations, h.Population, h.WindowRounds, h.Critical, h.Budget, slo.Alpha, h.Measured, h.BindingK, h.BindingBound, h.BindingDisk)
	return h
}

// setSLOHint publishes a hint for its target (replacing any previous
// one), under the hint mutex so SLOHints readers never race.
func (s *Server) setSLOHint(h SLOHint) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	for i := range s.sloHints {
		if s.sloHints[i].Target == h.Target {
			s.sloHints[i] = h
			return
		}
	}
	s.sloHints = append(s.sloHints, h)
}

// clearSLOHint withdraws a target's hint once its alert resolves.
func (s *Server) clearSLOHint(target string) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	for i := range s.sloHints {
		if s.sloHints[i].Target == target {
			s.sloHints = append(s.sloHints[:i], s.sloHints[i+1:]...)
			return
		}
	}
}
