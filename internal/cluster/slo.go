package cluster

import (
	"fmt"

	"mzqos/internal/engine"
	"mzqos/internal/slo"
)

// Cluster-level guarantee auditing: per-shard SLO snapshots ride the
// heartbeat (engine.Health.SLO), and the coordinator rolls them up to a
// cluster error budget weighted by shard capacity — a shard serving
// twice the streams contributes twice the weight to the cluster's
// measured tail, matching how the cluster-wide guarantee composes from
// per-shard ones. The roll-up is computed once per heartbeat and stored
// in the copy-on-write view, so readers (the /slo endpoint, the cluster
// gauges) share one precomputed snapshot.

// ClusterSLOTarget is one audited target's cluster-wide roll-up.
type ClusterSLOTarget struct {
	// Target is slo.TargetLate or slo.TargetGlitch.
	Target string `json:"target"`
	// Budget is the capacity-weighted analytic bound across audited
	// shards; MeasuredFast/Slow the capacity-weighted window estimates.
	Budget       float64 `json:"budget"`
	MeasuredFast float64 `json:"measured_fast"`
	MeasuredSlow float64 `json:"measured_slow"`
	// BurnFast/Slow are the cluster burn rates: weighted measured over
	// weighted budget, capped at slo.MaxBurn.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// FiringShards and PendingShards count shards whose own alert for
	// this target is in that state.
	FiringShards  int `json:"firing_shards"`
	PendingShards int `json:"pending_shards"`
}

// clusterSLORollup is the precomputed roll-up stored in the view.
type clusterSLORollup struct {
	Targets [2]ClusterSLOTarget
	// AuditedShards counts shards reporting an enabled audit;
	// FiringShards those with at least one target Firing.
	AuditedShards int
	FiringShards  int
}

// rollupSLO computes the capacity-weighted cluster roll-up over shard
// health snapshots. Shards without an enabled audit (SLO.Disabled) or
// with zero capacity contribute nothing.
func rollupSLO(shards []engine.Health) clusterSLORollup {
	var r clusterSLORollup
	r.Targets[0].Target = slo.TargetLate
	r.Targets[1].Target = slo.TargetGlitch
	var wTotal float64
	var wBudget, wMeasF, wMeasS [2]float64
	for _, h := range shards {
		if !h.SLO.Enabled {
			continue
		}
		r.AuditedShards++
		firing := false
		states := [2]int{h.SLO.LateState, h.SLO.GlitchState}
		for i, st := range states {
			switch slo.State(st) {
			case slo.Firing:
				r.Targets[i].FiringShards++
				firing = true
			case slo.Pending:
				r.Targets[i].PendingShards++
			}
		}
		if firing {
			r.FiringShards++
		}
		w := float64(h.Capacity)
		if w <= 0 {
			continue
		}
		wTotal += w
		wBudget[0] += w * h.SLO.BudgetLate
		wBudget[1] += w * h.SLO.BudgetGlitch
		wMeasF[0] += w * h.SLO.LateFast
		wMeasF[1] += w * h.SLO.GlitchFast
		wMeasS[0] += w * h.SLO.LateSlow
		wMeasS[1] += w * h.SLO.GlitchSlow
	}
	if wTotal > 0 {
		for i := range r.Targets {
			t := &r.Targets[i]
			t.Budget = wBudget[i] / wTotal
			t.MeasuredFast = wMeasF[i] / wTotal
			t.MeasuredSlow = wMeasS[i] / wTotal
			t.BurnFast = slo.BurnRate(t.MeasuredFast, t.Budget)
			t.BurnSlow = slo.BurnRate(t.MeasuredSlow, t.Budget)
		}
	}
	return r
}

// ShardSLO is one shard's audit snapshot in the cluster SLO report.
type ShardSLO struct {
	// Shard is the shard id; SLO the heartbeat snapshot from the view.
	Shard int              `json:"shard"`
	SLO   engine.SLOHealth `json:"slo"`
	// LateState/GlitchState name the alert-state ordinals for readers.
	LateState   string `json:"late_state"`
	GlitchState string `json:"glitch_state"`
}

// ClusterSLO is the cluster guarantee-audit report (the cluster /slo
// payload): the capacity-weighted roll-up plus each shard's snapshot,
// all from the current heartbeat view.
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
	st.AuditedShards = v.slo.AuditedShards
	st.FiringShards = v.slo.FiringShards
	st.Targets = append(st.Targets, v.slo.Targets[:]...)
	st.Shards = make([]ShardSLO, len(v.shards))
	for i, h := range v.shards {
		st.Shards[i] = ShardSLO{
			Shard:       i,
			SLO:         h.SLO,
			LateState:   slo.State(h.SLO.LateState).String(),
			GlitchState: slo.State(h.SLO.GlitchState).String(),
		}
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
