package server

import (
	"fmt"

	"mzqos/internal/engine"
	"mzqos/internal/journal"
)

// Stream migration: the server side of the cluster's evict-to-migrate
// contract (engine.Engine's ExportStream/ImportStream/ActiveStreams).
// Eviction and failure no longer have to end a playback — the coordinator
// takes the stream's resumable state (from the round report for a shed
// stream, from ExportStream for a drained one) and re-admits it on a
// sibling replica, so the viewer pays at most the importing shard's slotting
// delay instead of losing the stream.

// suspendEvicted detaches a shed stream's ledger record with its
// delivered stats so far and returns the stream's eviction for the round
// report. With migration enabled the record waits inflight for
// re-admission, otherwise the eviction finalizes it.
func (s *Server) suspendEvicted(st *stream) engine.Eviction {
	s.ledger.Suspend(s.shard, int64(st.id), journal.Delivered{
		StartupDelay: st.delay,
		Served:       st.served,
		Glitches:     st.glitches,
		Evicted:      true,
	}, s.round)
	return engine.Eviction{ID: st.id, State: streamState(st)}
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

// ExportStream captures and removes an active stream's resumable state:
// the stream is withdrawn from the server (slot freed, nothing recorded as
// finished — it continues on another shard). A shed stream's state left
// in its round's report instead.
func (s *Server) ExportStream(id StreamID) (engine.StreamState, error) {
	i, ok := s.find(id)
	if !ok {
		return engine.StreamState{}, fmt.Errorf("%w: %d", ErrUnknownStream, id)
	}
	st := &s.active[i]
	state := streamState(st)
	delivered := journal.Delivered{StartupDelay: st.delay, Served: st.served, Glitches: st.glitches}
	s.deactivate(i)
	s.ledger.Suspend(s.shard, int64(id), delivered, s.round)
	return state, nil
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
	for i := range s.active {
		ids[i] = s.active[i].id
	}
	return ids
}
