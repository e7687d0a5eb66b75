package sim

import (
	"fmt"
	"slices"

	"mzqos/internal/engine"
)

// Stream migration: the simulated engine's side of the cluster's
// evict-to-migrate contract, mirroring internal/server's semantics so a
// coordinator can exercise failover against cheap simulated fleets.

// shedToLimit evicts the newest streams of every offset class whose
// occupancy exceeds the in-force limit, at the top of Step. No-op unless
// EngineConfig.ShedOnDegrade is set. Evicted ids are returned ascending;
// their states stay exportable through the bounded buffer.
func (e *Engine) shedToLimit() []engine.StreamID {
	// A failed shard does not shed-to-limit: its streams are stranded in
	// place (the limit is 0 only because admission closed) for the
	// coordinator's failover drain — mirroring the live server's default
	// of not evicting on failure.
	if !e.cfg.ShedOnDegrade || e.hFailed.Load() {
		return nil
	}
	limit := int(e.hLimit.Load())
	var evicted []engine.StreamID
	for class := range e.classes {
		excess := len(e.classes[class]) - limit
		if excess <= 0 {
			continue
		}
		ids := e.classes[class]
		// Class slices are kept ascending by StreamID, so the newest
		// streams are the tail ("last in, first shed").
		shed := ids[len(ids)-excess:]
		for _, id := range shed {
			e.rememberEvicted(id, e.streams[id])
			delete(e.streams, id)
		}
		e.classes[class] = ids[:len(ids)-excess]
		evicted = append(evicted, shed...)
	}
	if evicted == nil {
		return nil
	}
	slices.Sort(evicted)
	e.hActive.Store(int64(len(e.streams)))
	return evicted
}

// rememberEvicted buffers a shed stream's resumable state (bounded FIFO,
// oldest dropped).
func (e *Engine) rememberEvicted(id engine.StreamID, st *simStream) {
	e.evicted.Put(id, simStreamState(st))
}

// simStreamState captures a stream's resumable state.
func simStreamState(st *simStream) engine.StreamState {
	return engine.StreamState{
		Object:   st.name,
		Position: st.next,
		Delay:    st.delay,
		Served:   st.next,
		Glitches: st.glitches,
	}
}

// ExportStream captures and removes a stream's resumable state: an
// active stream is withdrawn (slot freed, not reported completed), and a
// recently evicted stream's buffered state is surrendered.
func (e *Engine) ExportStream(id engine.StreamID) (engine.StreamState, error) {
	if st, ok := e.streams[id]; ok {
		state := simStreamState(st)
		e.removeFromClass(st.class, id)
		delete(e.streams, id)
		e.hActive.Store(int64(len(e.streams)))
		return state, nil
	}
	if state, ok := e.evicted.Take(id); ok {
		return state, nil
	}
	return engine.StreamState{}, fmt.Errorf("%w: %d", ErrUnknownStream, id)
}

// ImportStream re-admits a stream mid-playback under the same admission
// discipline as Open (see admit), resuming at state.Position.
func (e *Engine) ImportStream(state engine.StreamState) (engine.StreamID, int, error) {
	return e.admit(state)
}

// ActiveStreams returns the open-stream ids, ascending — the drain list
// a coordinator walks when failing over the whole shard.
func (e *Engine) ActiveStreams() []engine.StreamID {
	ids := make([]engine.StreamID, 0, len(e.streams))
	for id := range e.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
