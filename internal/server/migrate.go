package server

import (
	"fmt"

	"mzqos/internal/engine"
	"mzqos/internal/journal"
)

// Stream migration: the server side of the cluster's evict-to-migrate
// contract (engine.Engine's ExportStream/ImportStream/ActiveStreams).
// Eviction and failure no longer have to end a playback — the coordinator
// exports the stream's resumable state and re-admits it on a sibling
// replica, so the viewer pays at most the importing shard's slotting
// delay instead of losing the stream.

// rememberEvicted buffers a shed stream's resumable state (bounded FIFO,
// oldest dropped) so a coordinator can still export it after eviction.
func (s *Server) rememberEvicted(st *stream) {
	s.evictedStates.Put(st.id, streamState(st))
	// Detach the stream's ledger record with its delivered stats so far;
	// with migration enabled it waits inflight for re-admission, otherwise
	// the eviction finalizes it.
	s.ledger.Suspend(s.shard, int64(st.id), journal.Delivered{
		StartupDelay: st.delay,
		Served:       st.served,
		Glitches:     st.glitches,
		Evicted:      true,
	}, s.round)
}

// streamState captures a stream's resumable state.
func streamState(st *stream) engine.StreamState {
	return engine.StreamState{
		Object:   st.obj.name,
		Position: st.next,
		Delay:    st.delay,
		Served:   st.served,
		Glitches: st.glitches,
	}
}

// ExportStream captures and removes a stream's resumable state: an active
// stream is withdrawn from the server (slot freed, nothing recorded as
// finished — it continues on another shard), and a recently evicted
// stream's buffered state is surrendered.
func (s *Server) ExportStream(id StreamID) (engine.StreamState, error) {
	if i, ok := s.find(id); ok {
		st := s.active[i]
		state := streamState(st)
		s.deactivate(i)
		s.ledger.Suspend(s.shard, int64(id), journal.Delivered{
			StartupDelay: st.delay,
			Served:       st.served,
			Glitches:     st.glitches,
		}, s.round)
		return state, nil
	}
	if state, ok := s.evictedStates.Take(id); ok {
		return state, nil
	}
	return engine.StreamState{}, fmt.Errorf("%w: %d", ErrUnknownStream, id)
}

// ImportStream re-admits a stream mid-playback under Open's admission
// control (see admit), taken from the resume position. The returned
// startupDelay is only the additional slotting delay charged here; the
// state's accumulated delay credit is carried into the stream's stats.
func (s *Server) ImportStream(state engine.StreamState) (StreamID, int, error) {
	return s.admit(state, true)
}

// ActiveStreams returns the open-stream ids, ascending — the drain list a
// coordinator walks when failing this shard's whole active set over to
// sibling replicas.
func (s *Server) ActiveStreams() []StreamID {
	ids := make([]StreamID, len(s.active))
	for i, st := range s.active {
		ids[i] = st.id
	}
	return ids
}
