package cluster

import "mzqos/internal/engine"

// view is the admission view: an immutable snapshot of every shard's
// health, which the loop publishes with one atomic pointer store after
// every round and every Recalibrate. Open admits on it, and the readers
// (Status, SLOStatus, TightnessReport) load it without blocking the loop.
type view struct {
	shards []engine.Health
	// slo is the capacity-weighted cluster SLO roll-up over the shard
	// snapshots, precomputed at publish time so readers share one copy.
	slo clusterSLORollup
}

// capacity returns the admission capacity of a shard in this view
// (0 for out-of-range ids).
func (v *view) capacity(id int) int64 {
	if v == nil || id < 0 || id >= len(v.shards) {
		return 0
	}
	return int64(v.shards[id].Capacity)
}

// leastLoaded returns the index into cands of the candidate with the
// lowest open-streams/capacity load factor in this view, skipping failed
// shards. Load factors compare by cross-multiplication so the scan stays
// in integers. Ties keep the earliest candidate.
func (v *view) leastLoaded(shards []*shard, cands []int) int {
	best := 0
	var bestT, bestC int64 = 0, 0
	first := true
	for i, id := range cands {
		capa := v.capacity(id)
		if capa <= 0 {
			continue
		}
		t := int64(shards[id].eng.Active())
		if first || t*bestC < bestT*capa {
			best, bestT, bestC = i, t, capa
			first = false
		}
	}
	return best
}

// refreshView collects every shard's Health snapshot into a fresh view
// (with the capacity-weighted SLO roll-up over them) and publishes it.
func (c *Coordinator) refreshView() {
	v := &view{shards: make([]engine.Health, len(c.shards))}
	capacity, degraded := 0, 0
	for i, s := range c.shards {
		h := s.eng.Health()
		v.shards[i] = h
		capacity += h.Capacity
		if h.Degraded {
			degraded++
		}
	}
	v.slo = rollupSLO(v.shards)
	c.view.Store(v)
	c.publishTickets()
	c.tel.heartbeats.Inc()
	c.tel.capacity.Set(float64(capacity))
	c.tel.degraded.Set(float64(degraded))
	c.tel.publishSLO(&v.slo)
}

// ShardStatus is one shard's row in the cluster status.
type ShardStatus struct {
	// Shard is the shard id.
	Shard int `json:"shard"`
	// Health is the shard's view entry (the admission view's copy, not a
	// fresh engine read).
	Health engine.Health `json:"health"`
	// Tickets is the shard's open streams: Health.Active, read from the
	// engine when Status was called rather than from the view.
	Tickets int `json:"tickets"`
}

// Status is the coordinator's externally visible state (the /cluster
// endpoint's payload).
type Status struct {
	// Shards holds one row per shard, ascending by id.
	Shards []ShardStatus `json:"shards"`
	// Route is the routing policy name; Replicas the per-object placement
	// width; Objects the number of placed objects.
	Route    string `json:"route"`
	Replicas int    `json:"replicas"`
	Objects  int    `json:"objects"`
	// Capacity sums shard capacities in the current view; Tickets the
	// open streams against it; Round the coordinator rounds executed.
	Capacity int `json:"capacity"`
	Tickets  int `json:"tickets"`
	Round    int `json:"round"`
	// Migrate reports whether eviction-to-migration is enabled;
	// Migrations the cumulative migration counters.
	Migrate    bool           `json:"migrate"`
	Migrations MigrationStats `json:"migrations"`
}

// Status snapshots the current view, the shards' open streams and the
// placement counts.
func (c *Coordinator) Status() Status {
	v := c.view.Load()
	st := Status{
		Shards:   make([]ShardStatus, len(c.shards)),
		Route:    c.routeN,
		Replicas: c.reps,
		Round:    int(c.round.Load()),
	}
	for i, s := range c.shards {
		var h engine.Health
		if v != nil && i < len(v.shards) {
			h = v.shards[i]
		}
		t := s.eng.Health().Active
		st.Shards[i] = ShardStatus{Shard: i, Health: h, Tickets: t}
		st.Capacity += h.Capacity
		st.Tickets += t
	}
	c.pmu.RLock()
	st.Objects = len(c.placement)
	c.pmu.RUnlock()
	st.Migrate = c.migrate
	st.Migrations = c.MigrationStats()
	return st
}
