package server

import (
	"mzqos/internal/fault"
	"mzqos/internal/trace"
)

// Trace returns the server's flight recorder, or nil when tracing was
// disabled in the configuration. A nil recorder's methods all no-op, so
// callers may use the result without checking. The recorder itself is
// safe for concurrent use with the round loop, which is how the /trace
// endpoint reads live and frozen span history while rounds execute.
func (s *Server) Trace() *trace.Recorder { return s.trc }

// commitSpan finishes the scratch span with the sweep totals of dr and the
// disk and fault effects eff it was served under, and commits it to the
// recorder. Its requests were appended by Step from the sweep's outcomes;
// observed is what observeSweep recorded into the round-time histogram for
// this sweep (Busy, or the down-round sentinel), so summed span Observed
// reproduces the histogram sum exactly.
func (s *Server) commitSpan(d int, eff fault.Effects, dr *DiskRoundReport, observed float64) {
	sp := &s.trcSpan
	sp.Served(s.geoms[d], eff)
	sp.Round = s.round
	sp.Disk = d
	sp.Seek = dr.Seek
	sp.Rotation = dr.Rotation
	sp.Transfer = dr.Transfer
	sp.Busy = dr.Busy
	sp.Observed = observed
	sp.Late = dr.Late
	sp.Lost = dr.Lost
	sp.Retries = dr.Retries
	sp.Faulty = dr.Faulty
	sp.Down = dr.Down
	s.trc.Record(sp)
}
