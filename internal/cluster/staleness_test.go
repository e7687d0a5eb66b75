package cluster

import (
	"testing"

	"mzqos/internal/engine"
	"mzqos/internal/journal"
)

// frozenHealthEngine wraps a shard engine so its reported health round
// can be pinned at zero — the signature of a wedged heartbeat source
// whose engine no longer advances.
type frozenHealthEngine struct {
	engine.Engine
	frozen bool
}

func (f *frozenHealthEngine) Health() engine.Health {
	h := f.Engine.Health()
	if f.frozen {
		h.Round = 0
	}
	return h
}

func staleEvents(j *journal.Journal) []journal.Event {
	return j.Events(journal.Filter{
		Kinds: []journal.Kind{journal.KindHeartbeatStale},
		Shard: -1, Disk: -1,
	})
}

// TestStalenessQuietOnSlowHeartbeat pins the false-positive regression:
// with a heartbeat cadence at or above StaleAfter, the cached view
// legitimately lags up to HeartbeatEvery-1 rounds, and healthy shards
// must not journal heartbeat_stale events every refresh cycle.
func TestStalenessQuietOnSlowHeartbeat(t *testing.T) {
	jnl := journal.New(journal.Config{Capacity: 64})
	c := newCoordinator(t, Config{
		Engines:        fleet(t, 2, 2, nil),
		HeartbeatEvery: 10, // > DefaultStaleAfter (8)
		Journal:        jnl,
	})
	steps(c, 60)
	if evs := staleEvents(jnl); len(evs) != 0 {
		t.Fatalf("healthy shards journaled %d heartbeat_stale events: %+v", len(evs), evs)
	}
}

// TestStalenessFiresOnFrozenShard verifies a genuinely wedged shard —
// health round pinned while the coordinator advances — still trips the
// threshold, exactly once on the rising edge, and names the right shard.
func TestStalenessFiresOnFrozenShard(t *testing.T) {
	engines := fleet(t, 2, 2, nil)
	wedged := &frozenHealthEngine{Engine: engines[1]}
	engines[1] = wedged
	jnl := journal.New(journal.Config{Capacity: 64})
	c := newCoordinator(t, Config{
		Engines:        engines,
		HeartbeatEvery: 10,
		Journal:        jnl,
	})
	wedged.frozen = true
	steps(c, 60)
	evs := staleEvents(jnl)
	if len(evs) != 1 {
		t.Fatalf("wedged shard journaled %d heartbeat_stale events, want 1 rising edge: %+v", len(evs), evs)
	}
	if evs[0].Shard != 1 || evs[0].Value < float64(DefaultStaleAfter) {
		t.Fatalf("stale event names wrong shard or lag: %+v", evs[0])
	}
}
