package server

import (
	"mzqos/internal/journal"
	"mzqos/internal/model"
)

// Rejection reasons: the Detail of the reject event admission control
// records on the journal.
const (
	// RejectOverload marks rejections issued because N_max is zero: the
	// guarantee is unattainable for even one stream on the binding disk
	// (or a disk failure forced the limit to zero), so no class can ever
	// accept.
	RejectOverload = "overload"
	// RejectClassesFull marks rejections issued because every admissible
	// start slot within the next D rounds sat at occupancy N_max.
	RejectClassesFull = "classes_full"
)

// recordRejection counts a rejection and records it on the timeline: a
// reject event naming the object, with the reason in Detail and the N_max
// in force in Value. The journal is the one record of rejections; the
// counter keeps counting once their events age out of it.
func (s *Server) recordRejection(object, reason string, nmax int) {
	s.tel.rejected.Inc()
	if s.jnl != nil {
		var e journal.Event
		s.event(&e, journal.KindReject)
		e.Object, e.Value, e.Detail = object, float64(nmax), reason
		s.jnl.Append(&e)
	}
}

// AdmissionStatus is the server's admission-explanation surface: the
// limits in force, the per-disk decision traces that derived them (which
// constraint k, which bound family, the solved θ, and the slack left
// under the guarantee's threshold) and the live per-class occupancy.
// Beside the journal's reject events, which name the object, the reason
// and the N_max each rejection ran into, it answers "why was this stream
// turned away" and "why is N_max exactly this".
type AdmissionStatus struct {
	// Round is the number of rounds executed; Active the open streams.
	Round  int `json:"round"`
	Active int `json:"active"`
	// NMax is the per-disk limit in force; Capacity is D·N_max.
	NMax     int `json:"nmax"`
	Capacity int `json:"capacity"`
	// Degraded reports whether fault-degraded limits are in force.
	Degraded bool `json:"degraded"`
	// Guarantee is the configured stochastic service target.
	Guarantee model.Guarantee `json:"guarantee"`
	// BindingDisk indexes the disk whose model produced NMax;
	// Explanations holds one decision trace per disk (index-aligned with
	// the array), each carrying the binding (k, bound, θ, slack) tuple.
	BindingDisk  int                          `json:"binding_disk"`
	Explanations []model.AdmissionExplanation `json:"explanations"`
	// Classes is the live per-offset-class occupancy (length D).
	Classes []int `json:"classes"`
}

// AdmissionStatus assembles the admission-explanation report. Safe to
// call concurrently with the round loop: the limit, its explanations and
// its degraded flag come from one load of the limits in force, and
// counters, gauges and class occupancy are atomic.
func (s *Server) AdmissionStatus() AdmissionStatus {
	lim := s.lim.Load()
	return AdmissionStatus{
		Round:        int(s.tel.rounds.Value()),
		Active:       int(s.tel.active.Value()),
		NMax:         lim.nmax,
		Capacity:     lim.nmax * len(s.geoms),
		Degraded:     lim.degraded,
		Guarantee:    s.cfg.Guarantee,
		BindingDisk:  lim.bindDisk,
		Explanations: append([]model.AdmissionExplanation(nil), lim.explains...),
		Classes:      s.occupancy(make([]int, 0, len(s.classes))),
	}
}
