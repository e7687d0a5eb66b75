package cluster

// The migration engine: Step's post-sweep pass that turns evictions into
// migrations and failed shards into failover drains. An evicted stream's
// state comes in its shard's round report, a failed shard's streams are
// exported from it, and each is re-admitted on a sibling replica through
// the same room check as fresh admissions, resuming at their playback
// position — the viewer pays at most one round of added delay
// instead of losing the stream. Per-round work is capped by the migrate
// budget so a mass failure drains at a configured pace.

import (
	"mzqos/internal/journal"
)

// migrateRound runs after the shard sweeps of one Step. It (1) captures
// this round's evictions as migration work, (2) drains failed shards'
// active sets into the queue up to the budget's remaining room, and (3)
// processes up to budget queued states, re-admitting each on a sibling
// replica. round is the round the shards have stepped into, which their
// re-admissions stamp, so every event and ledger record of the pass
// stamps it too. Returns the round's migrated/failed/failed-over counts.
func (c *Coordinator) migrateRound(rep *RoundReport, round int) (migrated, failed, failedOver int) {
	// Capture evictions: each carries the state its stream left with.
	for i := range rep.Shards {
		sr := &rep.Shards[i]
		for _, ev := range sr.Report.Evicted {
			c.pending = append(c.pending, migration{state: ev.State, from: sr.Shard, id: ev.ID, kind: "migrate"})
		}
	}

	// Failover: drain failed shards. Exporting a drained stream withdraws
	// it from the source shard's active set, which frees its slot there.
	// Draining is bounded by the budget's room over the queue so one dead
	// shard cannot grow the queue faster than it drains.
	room := c.migBudget - len(c.pending)
	for _, s := range c.shards {
		if room <= 0 {
			break
		}
		if !s.eng.Health().Failed {
			continue
		}
		ids := s.eng.ActiveStreams()
		for _, id := range ids {
			if room <= 0 {
				break
			}
			st, err := s.eng.ExportStream(id)
			if err != nil {
				continue
			}
			c.pending = append(c.pending, migration{state: st, from: s.id, id: id, kind: "failover"})
			room--
			failedOver++
			if c.jnl != nil {
				c.jnl.Append(&journal.Event{
					Round:  round,
					Kind:   journal.KindFailover,
					Shard:  s.id,
					Disk:   -1,
					Stream: int64(id),
					Object: st.Object,
					From:   s.id,
					To:     -1,
				})
			}
		}
	}
	c.tel.migFailover.Add(int64(failedOver))

	if len(c.pending) == 0 {
		c.queued.Store(0)
		return migrated, failed, failedOver
	}

	// Re-admission works against a fresh view: the evicting shard's
	// shrunken capacity (and the failed shard's zero) must be visible so
	// re-admissions land on siblings that can actually hold them.
	c.refreshView(false)
	v := c.view.Load()

	var deferred []migration
	for processed := 0; processed < c.migBudget && len(c.pending) > 0; processed++ {
		m := c.pending[0]
		c.pending = c.pending[1:]
		c.tel.migAttempted.Inc()
		if c.importOne(&m, v, round) {
			migrated++
			c.tel.migSucceeded.Inc()
			continue
		}
		m.tries++
		if m.tries < migrateMaxTries {
			deferred = append(deferred, m) // next round's fresh view may admit
		} else {
			failed++
			c.tel.migFailed.Inc()
			c.ledger.Abandon(m.from, int64(m.id), round)
		}
	}
	c.pending = append(c.pending, deferred...)
	c.queued.Store(int64(len(c.pending)))
	return migrated, failed, failedOver
}

// importOne re-admits one exported stream on a sibling replica: try each
// candidate shard with room in turn (the source shard excluded — it just
// shed or lost the stream) and import the stream there. An engine-side
// rejection moves on to the next; success records the migration on the
// timeline, beside the admit event of the shard that took it.
func (c *Coordinator) importOne(m *migration, v *view, round int) bool {
	cands := c.candidates(m.state.Object)
	for _, id := range cands {
		if id == m.from {
			continue
		}
		if !c.hasRoom(id, v) {
			continue
		}
		sid, delay, err := c.shards[id].eng.ImportStream(m.state)
		if err != nil {
			continue // class slots fuller than the view knew
		}
		if c.jnl != nil {
			c.jnl.Append(&journal.Event{
				Round:  round,
				Kind:   journal.KindMigrate,
				Shard:  id,
				Disk:   -1,
				Stream: int64(sid),
				Object: m.state.Object,
				From:   m.from,
				To:     id,
				Value:  float64(delay),
				Detail: m.kind,
			})
		}
		c.ledger.Migrated(m.from, int64(m.id), id, int64(sid))
		return true
	}
	return false
}

// MigrationStats snapshots the mzqos_cluster_migrations_* and failover
// counters and the queue length the last migration pass left. Safe
// concurrently with Step.
func (c *Coordinator) MigrationStats() MigrationStats {
	return MigrationStats{
		Attempted:       c.tel.migAttempted.Value(),
		Succeeded:       c.tel.migSucceeded.Value(),
		Failed:          c.tel.migFailed.Value(),
		FailoverStreams: c.tel.migFailover.Value(),
		Pending:         int(c.queued.Load()),
	}
}
