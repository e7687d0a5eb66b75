package cluster

import (
	"fmt"

	"mzqos/internal/engine"
	"mzqos/internal/slo"
)

// Cluster-level guarantee auditing runs the shards' own test on their
// pooled counts. Each shard's heartbeat (engine.Health.SLO) carries its
// fast and slow windows' violations and populations per target; the
// coordinator sums them, and its own slo.Alert per target tests Σk
// against Bin(Σn, the largest shard budget) at slo.Alpha — conservative at
// that level, since under every shard's promise Σk is at most such a draw
// — stepping once per coordinator round. Pooling dilutes one bad shard
// among healthy ones: a shard's own alert stays the fast detector, and the
// cluster's says whether the fleet as a whole keeps the promise. The
// roll-up is computed once per heartbeat and stored in the copy-on-write
// view, so readers (the /slo endpoint, the cluster gauges) share one
// precomputed snapshot.

// ClusterSLOTarget is one audited target's cluster-wide roll-up.
type ClusterSLOTarget struct {
	// TargetStatus is the cluster's own test: the largest shard budget,
	// the pooled windows' counts against their critical counts, and the
	// cluster alert's state.
	slo.TargetStatus
	// FiringShards and PendingShards count shards whose own alert for
	// this target is in that state.
	FiringShards  int `json:"firing_shards"`
	PendingShards int `json:"pending_shards"`
}

// clusterSLORollup is the precomputed roll-up stored in the view, in the
// fixed-size form SLOStatus expands, so publishing it allocates nothing.
type clusterSLORollup struct {
	cfg             slo.Config      // the audited shards' window spans
	budgets         [2]float64      // per target, the largest shard budget
	windows         [2][2]slo.Count // per target, the pooled fast and slow counts
	alerts          [2]slo.Alert    // the cluster's alerts as of this view
	firing, pending [2]int          // per target, shards in that state
	// AuditedShards counts shards reporting an enabled audit;
	// FiringShards those with at least one target Firing.
	AuditedShards int
	FiringShards  int
}

// sloAudit is the cluster's alert per target, owned by the loop.
type sloAudit [2]slo.Alert

// rollup pools the audited shards' heartbeat counts per target and window
// under the largest budget among them, and when step is set advances the
// cluster's alerts one round on the pool. Shards without an enabled audit
// contribute nothing.
func (a *sloAudit) rollup(shards []engine.Health, round int, step bool) clusterSLORollup {
	var r clusterSLORollup
	for j := range shards {
		h := &shards[j].SLO
		if !h.Enabled {
			continue
		}
		r.AuditedShards++
		r.cfg.FastWindow = max(r.cfg.FastWindow, h.FastWindow)
		r.cfg.SlowWindow = max(r.cfg.SlowWindow, h.SlowWindow)
		firing := false
		for i, st := range h.States {
			r.budgets[i] = max(r.budgets[i], h.Budgets[i])
			r.windows[i][0].Add(h.Windows[i][0])
			r.windows[i][1].Add(h.Windows[i][1])
			switch st {
			case slo.Firing:
				r.firing[i]++
				firing = true
			case slo.Pending:
				r.pending[i]++
			}
		}
		if firing {
			r.FiringShards++
		}
	}
	if step {
		for i := range a {
			a[i].Step(round, r.windows[i][0], r.windows[i][1], r.budgets[i], slo.DefaultResolvedFor)
		}
	}
	r.alerts = *a
	return r
}

// ShardSLO is one shard's audit snapshot in the cluster SLO report.
type ShardSLO struct {
	// Shard is the shard id; SLO the heartbeat snapshot from the view.
	Shard int        `json:"shard"`
	SLO   slo.Health `json:"slo"`
}

// ClusterSLO is the cluster guarantee-audit report (the cluster /slo
// payload): the cluster's own test of the pooled counts plus each shard's
// snapshot, all from the current heartbeat view.
type ClusterSLO struct {
	// AuditedShards counts shards running an audit; FiringShards those
	// with at least one alert Firing.
	AuditedShards int `json:"audited_shards"`
	FiringShards  int `json:"firing_shards"`
	// Targets holds the cluster roll-up per audited bound; Shards the
	// per-shard snapshots, ascending by id.
	Targets []ClusterSLOTarget `json:"targets"`
	Shards  []ShardSLO         `json:"shards"`
}

// SLOStatus assembles the cluster guarantee-audit report from the
// current heartbeat view. Safe for arbitrary concurrency (one atomic
// view load).
func (c *Coordinator) SLOStatus() ClusterSLO {
	v := c.view.Load()
	st := ClusterSLO{}
	if v == nil {
		return st
	}
	r := &v.slo
	st.AuditedShards = r.AuditedShards
	st.FiringShards = r.FiringShards
	st.Targets = make([]ClusterSLOTarget, len(r.alerts))
	for i := range st.Targets {
		st.Targets[i] = ClusterSLOTarget{
			TargetStatus:  r.alerts[i].Status(slo.TargetName(i), r.budgets[i], r.windows[i][0], r.windows[i][1], r.cfg),
			FiringShards:  r.firing[i],
			PendingShards: r.pending[i],
		}
	}
	st.Shards = make([]ShardSLO, len(v.shards))
	for i, h := range v.shards {
		st.Shards[i] = ShardSLO{Shard: i, SLO: h.SLO}
	}
	return st
}

// ShardTightness is one shard's bound-vs-measured report.
type ShardTightness struct {
	// Shard is the shard id. Audited is false when the shard's engine
	// offers no BoundTightness (a decorator that does not forward it);
	// Report is then zero and Err empty.
	Shard   int                    `json:"shard"`
	Audited bool                   `json:"audited"`
	Report  engine.TightnessReport `json:"report"`
	Err     string                 `json:"error,omitempty"`
}

// ClusterTightnessReport aggregates per-shard bound-vs-measured reports
// — the cluster analogue of the single server's BoundTightness, behind
// the cluster /report endpoint and the exit table in cluster mode.
type ClusterTightnessReport struct {
	// Shards holds one row per shard, ascending by id.
	Shards []ShardTightness `json:"shards"`
	// AuditedShards counts shards that produced a report.
	AuditedShards int `json:"audited_shards"`
	// WithinBounds reports whether every audited shard respects its
	// bounds (vacuously true with no audited shards).
	WithinBounds bool `json:"within_bounds"`
}

// TightnessReport collects BoundTightness from every shard whose engine
// implements engine.TightnessReporter. Safe to call concurrently with
// the round loop: tightness reporters read atomic state by contract.
func (c *Coordinator) TightnessReport() ClusterTightnessReport {
	rep := ClusterTightnessReport{
		Shards:       make([]ShardTightness, len(c.shards)),
		WithinBounds: true,
	}
	for i, s := range c.shards {
		row := ShardTightness{Shard: i}
		if tr, ok := s.eng.(engine.TightnessReporter); ok {
			r, err := tr.BoundTightness()
			if err != nil {
				row.Err = fmt.Sprintf("shard %d: %v", i, err)
				rep.WithinBounds = false
			} else {
				row.Audited = true
				row.Report = r
				rep.AuditedShards++
				if !r.WithinBounds() {
					rep.WithinBounds = false
				}
			}
		}
		rep.Shards[i] = row
	}
	return rep
}
