package server

import (
	"slices"

	"mzqos/internal/engine"
	"mzqos/internal/journal"
	"mzqos/internal/sweep"
)

// The round-report vocabulary is shared with every other engine through
// internal/engine (the cluster layer's shard contract); the historical
// server names remain as aliases.
type (
	// DiskRoundReport is the outcome of one disk's sweep in one round.
	DiskRoundReport = engine.DiskRoundReport
	// RoundReport is the outcome of one server round.
	RoundReport = engine.RoundReport
	// RunSummary aggregates a multi-round execution.
	RunSummary = engine.RunSummary
)

// Step executes one round: every active stream whose start round has
// arrived reads its next fragment from its disk of the round; each disk
// serves its requests in one SCAN sweep (ascending cylinders from a parked
// arm); requests finishing after the round length are glitches for their
// streams (§2.3). Streams that consumed their final fragment complete.
//
// Faults scheduled by Config.Faults perturb the sweep: latency inflation
// scales every phase, zone-rate degradation slows transfers, transient
// read errors cost retry revolutions (and lose the fragment once retries
// are exhausted), and a failed disk serves nothing. With degradation
// enabled the server reacts to sustained faults after the sweep — see
// DegradeConfig.
//
// Determinism: requests are gathered by walking the active slice, which
// is in ascending StreamID order by construction — Open and ImportStream
// issue monotone ids, which land at the end — and SCAN ties on a cylinder
// break by that order, so a given Config.Seed (plus fault plan) reproduces
// byte-identical reports run after run.
func (s *Server) Step() RoundReport {
	rep := RoundReport{Round: s.round, Disks: s.diskRows()}
	tracing := s.trc.Enabled()

	// Resolve this round's fault effects once per disk.
	effs := s.effs
	faulty := 0
	for d := range effs {
		effs[d] = s.inj.EffectsAt(d, s.round)
		if effs[d].Active() {
			rep.Disks[d].Faulty = true
			faulty++
			s.tel.disks[d].faultRounds.Inc()
		}
	}
	s.tel.faultActive.Set(float64(faulty))
	if s.jnl != nil && s.inj != nil {
		s.journalFaultEdges(effs)
	}

	// Gather the due fragments per disk in one pass over active, which is
	// already in ascending StreamID order. Ref is the stream's index in
	// active, so active must not change until the last outcome loop ends.
	for d := range s.frags {
		s.frags[d] = s.frags[d][:0]
	}
	for i := range s.active {
		st := &s.active[i]
		if s.round < st.start {
			continue
		}
		d := mod(int(st.offset)+s.round, len(s.geoms))
		frag := &st.frags[st.next]
		s.frags[d] = append(s.frags[d], sweep.Fragment{Cylinder: int(frag.Cyl[st.slot]), Zone: int(frag.Zone[st.slot]), Size: frag.Size, Ref: i})
	}

	for d, frags := range s.frags {
		if len(frags) == 0 {
			continue
		}
		reqs := slices.Grow(s.reqs[d][:0], len(frags))[:len(frags)]
		s.reqs[d] = reqs
		eff := effs[d]
		dr := &rep.Disks[d]
		dr.Requests = len(reqs)
		// Full disk failure: nothing is served, every due fragment is
		// lost — a glitch for its stream (playback skips it, §2.3).
		dr.Down = eff.Failed
		tot := sweep.Serve(s.geoms[d], eff, s.rng, func(pos, attempt int) bool {
			return s.inj.ReadError(d, s.round, pos, attempt)
		}, frags, reqs)
		dr.Seek, dr.Rotation, dr.Transfer, dr.Busy = tot.Seek, tot.Rotation, tot.Transfer, tot.Busy
		dr.Retries, dr.Lost = tot.Retries, tot.Lost

		// The one place sweep outcomes become stream state and trace
		// records, in service order.
		var bytes float64
		for i := range reqs {
			r := &reqs[i]
			st := &s.active[r.Ref]
			st.served++
			bytes += r.Size
			late := !r.Lost && r.End > s.cfg.RoundLength
			if late {
				dr.Late++
			}
			if late || r.Lost {
				st.glitches++
				rep.Glitches++
			}
			st.next++
			if st.next >= len(st.frags) {
				s.done = append(s.done, st)
			}
			if tracing {
				s.trcSpan.Append(int64(st.id), r, late)
			}
		}
		if !dr.Down { // nothing read, so no size observed for recalibration
			s.observeSizes(reqs, bytes)
		}
		observed := s.observeSweep(d, dr)
		if tracing {
			s.commitSpan(d, eff, dr, observed)
			if dr.Down {
				s.freeze("down_round")
			}
		}
	}
	s.tel.rounds.Inc()
	s.tel.glitches.Add(int64(rep.Glitches))
	if rep.Glitches > 0 {
		if tracing {
			s.freeze("glitch")
		}
		if s.jnl != nil {
			// One event per glitching round with the round's fragment
			// total — per-stream glitch accounting lives in the ledger.
			var e journal.Event
			s.event(&e, journal.KindGlitch)
			e.Value = float64(rep.Glitches)
			s.jnl.Append(&e)
		}
	}

	rep.Completed = s.retireDone()
	rep.Evicted = s.adaptToFaults(effs)
	// Close the round for the SLO audit after fault adaptation so a
	// degraded round is already measured against its re-derived budgets,
	// then record the round into the embedded history while the round
	// counter still names the round the gauges describe.
	s.auditSLO()
	s.hist.Sample(s.round)
	s.round++
	return rep
}

// retireDone retires the round's completed streams and returns their ids
// in ascending order, nil when none completed. Their ledger records
// finalize in service order, the order the ledger's retired ring keeps;
// the ledger takes the whole round in one Retire, from scratch reused
// across rounds, and the retirement counters move once for the round.
// done points into active, so it is consumed first; then active is
// compacted once for all of them rather than shifted once per stream, and
// since it is in ascending id order, the ids it drops come out sorted.
func (s *Server) retireDone() []StreamID {
	n := len(s.done)
	if n == 0 {
		return nil
	}
	for _, st := range s.done {
		s.classes[st.offset].Add(-1)
		s.retiring = append(s.retiring, st.retirement(true))
	}
	clear(s.done) // keeps no earlier active array alive
	s.done = s.done[:0]
	s.tel.retired.Add(int64(n))
	s.tel.completed.Add(int64(n))
	s.ledger.Retire(s.shard, s.round, s.retiring)
	s.retiring = s.retiring[:0]
	ids := make([]StreamID, 0, n)
	w := 0
	for i := range s.active {
		st := &s.active[i]
		if st.next >= len(st.frags) {
			ids = append(ids, st.id)
			continue
		}
		if w != i {
			s.active[w] = *st
		}
		w++
	}
	clear(s.active[w:]) // keeps no retired stream's object alive
	s.active = s.active[:w]
	s.tel.active.Set(float64(len(s.active)))
	return ids
}

// reportBlock is how many rounds' worth of RoundReport.Disks rows one
// allocation holds.
const reportBlock = 32

// diskRows returns the zeroed per-disk rows of one round's report. Rows are
// never reused — callers keep reports — but they are cut from a block of
// reportBlock rounds' worth, so the allocator runs once per block. The cap
// is clipped, so an append to one report's Disks cannot reach the next's.
func (s *Server) diskRows() []DiskRoundReport {
	d := len(s.geoms)
	if len(s.rows) < d {
		s.rows = make([]DiskRoundReport, reportBlock*d)
	}
	rows := s.rows[:d:d]
	s.rows = s.rows[d:]
	return rows
}

// observeSizes folds one sweep's fragment sizes, whose sum is bytes, into
// the recalibration moments: a second pass for Σ(x − mean)² and one merge,
// in place of a division-chained Welford step per fragment.
func (s *Server) observeSizes(reqs []sweep.Request, bytes float64) {
	mean := bytes / float64(len(reqs))
	var m2 float64
	for i := range reqs {
		dev := reqs[i].Size - mean
		m2 += dev * dev
	}
	s.observed.MergeMoments(int64(len(reqs)), mean, m2)
}

// Run executes n rounds and returns an aggregate summary.
func (s *Server) Run(n int) RunSummary {
	var sum RunSummary
	sum.FirstRound = s.round
	for i := 0; i < n; i++ {
		sum.Observe(s.Step())
	}
	sum.DiskTime = float64(n) * s.cfg.RoundLength * float64(len(s.geoms))
	return sum
}
