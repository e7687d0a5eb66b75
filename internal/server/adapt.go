package server

import (
	"errors"
	"fmt"
	"math"

	"mzqos/internal/dist"
	"mzqos/internal/journal"
	"mzqos/internal/workload"
)

// ErrTooFewSamples is returned by Recalibrate before enough fragment sizes
// have been observed to refit the workload statistics.
var ErrTooFewSamples = errors.New("server: too few observed fragment sizes to recalibrate")

// ObservedSizeStats returns the running mean, standard deviation, and
// count of fragment sizes actually served — the "workload statistics"
// §2.3 says are fed into the admission control.
func (s *Server) ObservedSizeStats() (mean, sd float64, n int64) {
	return s.observed.Mean(), s.observed.Std(), s.observed.N()
}

// Recalibrate refits the admission model to the observed fragment-size
// moments and rebuilds the per-disk limit (§5: the precomputed table "has
// to be updated by re-evaluating the analytic model only if the disk
// configuration or general data characteristics change"). At least
// minSamples observations are required. The limit may shrink below the
// current occupancy of some offset classes; no streams are evicted — the
// classes simply admit nothing until they drain below the new limit.
//
// The refit size model becomes the server's configured model, so
// SizeDrift subsequently measures drift against the recalibrated fit
// rather than the stale original. A refit that moves the limit also starts
// a new observation epoch: the statistics it was fitted on are cleared, so
// the next refit sees only fragments served under the new limit. If degraded fault limits were in force
// they are discarded (the refit is computed against healthy geometries);
// the degraded-mode controller re-derives them against the new sizes on
// the next faulty round.
func (s *Server) Recalibrate(minSamples int64) (oldLimit, newLimit int, err error) {
	if minSamples < 2 {
		minSamples = 2
	}
	cur := s.lim.Load()
	if s.observed.N() < minSamples {
		return cur.nmax, cur.nmax, fmt.Errorf("%w: have %d, need %d", ErrTooFewSamples, s.observed.N(), minSamples)
	}
	mean := s.observed.Mean()
	sd := s.observed.Std()
	if !(mean > 0) || !(sd > 0) {
		return cur.nmax, cur.nmax, fmt.Errorf("%w: degenerate observed moments", ErrConfig)
	}
	sizes, err := workload.GammaSizes(mean, sd)
	if err != nil {
		return cur.nmax, cur.nmax, err
	}
	// Refit per distinct disk; the binding constraint is the minimum.
	next, err := evaluateDisks(s.geoms, sizes, s.cfg.RoundLength, s.cfg.Guarantee)
	if err != nil {
		return cur.nmax, cur.nmax, err
	}
	s.cfg.Sizes = sizes
	if cur.degraded {
		s.deg.base, s.deg.applied = nil, nil
		s.tel.degradeTransitions.Inc()
	}
	// A disk that is down stays reported down: only the controller's next
	// faulty round, or a restore, knows better.
	next.failed = cur.failed
	s.install(next)
	if next.nmax != cur.nmax {
		s.observed = dist.Welford{}
	}
	s.journalLimitChange(journal.KindRecalibrate, next.bindDisk, cur.nmax, next.nmax, "")
	return cur.nmax, next.nmax, nil
}

// SizeDrift returns the relative deviation of the observed mean fragment
// size from the configured size model's mean — a trigger signal for
// Recalibrate. It returns 0 until samples exist.
func (s *Server) SizeDrift() float64 {
	if s.observed.N() == 0 {
		return 0
	}
	declared := s.cfg.Sizes.Mean()
	if !(declared > 0) {
		return 0
	}
	return math.Abs(s.observed.Mean()-declared) / declared
}
