package server

// Pause suspends an active stream: playback stops at its current
// fragment and the stream's admission slot is released for other clients
// (the paper's model covers steady playback only — VCR-style interactions
// re-enter admission control, which is exactly what Resume does).
func (s *Server) Pause(id StreamID) error {
	i, ok := s.find(id)
	if !ok {
		if _, paused := s.paused[id]; paused {
			return nil // idempotent
		}
		return ErrUnknownStream
	}
	s.paused[id] = s.active[i]
	s.deactivate(i)
	s.tel.paused.Set(float64(len(s.paused)))
	return nil
}

// Resume re-admits a paused stream. Continuity of the striping layout
// pins the offset class: fragment k of the object lives on disk
// (base+k) mod D, so resuming at round r with the next fragment k forces
// class (base+k−r−delay) mod D for a startup delay of `delay` rounds. The
// least-loaded admissible class within the next D rounds is chosen;
// ErrRejected leaves the stream paused.
func (s *Server) Resume(id StreamID) (startupDelay int, err error) {
	st, ok := s.paused[id]
	if !ok {
		if _, active := s.find(id); active {
			return 0, nil // idempotent
		}
		return 0, ErrUnknownStream
	}
	delay, class, ok := s.slot(s.lim.Load().nmax, st.obj.base+st.next)
	if !ok {
		return 0, ErrRejected
	}
	delete(s.paused, st.id)
	st.offset = class
	st.start = s.round + delay
	st.delay += delay
	s.activate(st)
	s.tel.paused.Set(float64(len(s.paused)))
	return delay, nil
}

// Paused returns the number of paused streams.
func (s *Server) Paused() int { return len(s.paused) }
