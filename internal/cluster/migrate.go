package cluster

// The migration engine: Step's post-sweep pass that turns evictions into
// migrations and failed shards into failover drains. Evicted streams are
// exported from their shard (the engines buffer shed-stream state for
// exactly this window) and re-admitted on a sibling replica through the
// same ticket check as fresh admissions, resuming at their playback
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
// replica. Returns the round's migrated/failed/failed-over counts.
func (c *Coordinator) migrateRound(rep *RoundReport) (migrated, failed, failedOver int) {
	// Capture evictions. An export can miss only when the state already
	// aged out of the engine's bounded buffer (an eviction wave far past
	// the budget); those streams are unrecoverable and count failed.
	for i := range rep.Shards {
		sr := &rep.Shards[i]
		if len(sr.Report.Evicted) == 0 {
			continue
		}
		s := c.shards[sr.Shard]
		for _, id := range sr.Report.Evicted {
			st, err := s.eng.ExportStream(id)
			if err != nil {
				failed++
				c.tel.migFailed.Inc()
				c.ledger.Abandon(s.id, int64(id), rep.Round)
				continue
			}
			c.pending = append(c.pending, migration{state: st, from: s.id, id: id, kind: "migrate"})
		}
	}

	// Failover: drain failed shards. Each drained stream still holds its
	// admission ticket (it was active, not retired by the sweep), so
	// withdrawing it releases one slot on the source shard. Draining is
	// bounded by the budget's room over the queue so one dead shard
	// cannot grow the queue faster than it drains.
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
			c.releaseShard(s.id) // the drained stream's slot goes back
			room--
			failedOver++
			if c.jnl != nil {
				c.jnl.Append(journal.Event{
					Round:  rep.Round,
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
	// reservations land on siblings that can actually hold them.
	c.refreshView()
	v := c.view.Load()

	var deferred []migration
	for processed := 0; processed < c.migBudget && len(c.pending) > 0; processed++ {
		m := c.pending[0]
		c.pending = c.pending[1:]
		c.tel.migAttempted.Inc()
		if c.importOne(&m, v) {
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
			c.ledger.Abandon(m.from, int64(m.id), rep.Round)
		}
	}
	c.pending = append(c.pending, deferred...)
	c.queued.Store(int64(len(c.pending)))
	return migrated, failed, failedOver
}

// importOne re-admits one exported stream on a sibling replica: take a
// ticket on each candidate shard in turn (the source shard excluded — it
// just shed or lost the stream) and import the stream there. An
// engine-side rejection returns the ticket and moves on; success records
// the migration in the admission ring.
func (c *Coordinator) importOne(m *migration, v *view) bool {
	cands := c.candidates(m.state.Object)
	for _, id := range cands {
		if id == m.from {
			continue
		}
		if !c.reserveOn(id, v) {
			continue
		}
		sid, delay, err := c.shards[id].eng.ImportStream(m.state)
		if err != nil {
			c.releaseShard(id) // class slots fuller than the view knew
			continue
		}
		c.recordAdmission(AdmissionRecord{
			Object: m.state.Object, Shard: id, Stream: sid, Delay: delay,
			Round: int(c.round.Load()), Route: c.routeN,
			Kind: m.kind, From: m.from, Position: m.state.Position,
		})
		if c.jnl != nil {
			c.jnl.Append(journal.Event{
				Round:  int(c.round.Load()),
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
