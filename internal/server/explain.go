package server

import (
	"mzqos/internal/journal"
	"mzqos/internal/model"
)

// Rejection reasons recorded by admission control.
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

// rejectionRingCap bounds the admission-rejection history retained for
// the explanation surface. Older rejections age out of the ring but
// survive in the mzqos_server_streams_rejected_total counter.
const rejectionRingCap = 256

// RejectionEvent records one stream turned away by admission control,
// with enough state captured at the moment of rejection to explain it
// after the fact: the limit in force and the per-class occupancy that
// left no admissible start slot. Paired with the per-disk
// AdmissionExplanation (which says why N_max is what it is), every
// rejection traces back to a binding (k, bound, θ, slack) tuple.
type RejectionEvent struct {
	// Seq numbers rejections in admission order, gap-free from 0.
	Seq int64 `json:"seq"`
	// Round is the round index at which the open was attempted.
	Round int `json:"round"`
	// Object names the catalog entry the client asked for.
	Object string `json:"object"`
	// Reason is RejectOverload or RejectClassesFull.
	Reason string `json:"reason"`
	// NMax is the per-disk admission limit in force at rejection time;
	// Classes the per-offset-class occupancy (length D). For a
	// classes_full rejection every admissible class sits at NMax.
	NMax    int   `json:"nmax"`
	Classes []int `json:"classes"`
}

// recordRejection captures a rejection into the bounded ring, filling the
// slot the ring hands out in place: its Classes array is the lapped
// entry's, reused, so a rejected Open allocates nothing (Rejections copies
// on read). Runs on the loop thread (admit); the ring mutex only orders
// it against concurrent AdmissionStatus readers.
func (s *Server) recordRejection(object, reason string, nmax int) {
	s.admMu.Lock()
	seq := s.rejections.Pushed()
	ev := s.rejections.Next()
	ev.Seq = int64(seq)
	ev.Round = s.round
	ev.Object = object
	ev.Reason = reason
	ev.NMax = nmax
	ev.Classes = s.occupancy(ev.Classes[:0])
	s.admMu.Unlock()
	if s.jnl != nil {
		e := s.event(journal.KindReject)
		e.Object, e.Value, e.Detail = object, float64(nmax), reason
		s.jnl.Append(e)
	}
}

// Rejections returns the retained rejection history, oldest first. Safe
// for concurrent use with the round loop.
func (s *Server) Rejections() []RejectionEvent {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	out := s.rejections.AppendTo(make([]RejectionEvent, 0, s.rejections.Len()))
	for i := range out {
		out[i].Classes = append([]int(nil), out[i].Classes...)
	}
	return out
}

// AdmissionStatus is the server's admission-explanation surface: the
// limits in force, the per-disk decision traces that derived them (which
// constraint k, which bound family, the solved θ, and the slack left
// under the guarantee's threshold), the live per-class occupancy, and the
// recent rejections — everything needed to answer "why was this stream
// turned away" or "why is N_max exactly this".
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
	// Rejections is the retained rejection history, oldest first.
	Rejections []RejectionEvent `json:"rejections"`
	// SLOHints lists the active recalibration hints: one per SLO target
	// currently Firing, naming the violated bound, the measured-vs-
	// analytic numbers, and the binding admission constraint. Empty when
	// the measured behaviour respects the quoted guarantee.
	SLOHints []SLOHint `json:"slo_hints,omitempty"`
}

// AdmissionStatus assembles the admission-explanation report. Safe to
// call concurrently with the round loop: the limit, its explanations and
// its degraded flag come from one load of the limits in force, counters,
// gauges and class occupancy are atomic, and the rejection and hint
// state is read under the admission mutex.
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
		Rejections:   s.Rejections(),
		SLOHints:     s.SLOHints(),
	}
}
