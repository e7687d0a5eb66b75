// Package buffer implements the client-buffering extension the paper
// sketches as future work (§6): clients with memory for more than the
// minimum one fragment can absorb late deliveries, converting round
// overruns into invisible delays instead of display glitches.
//
// The mechanism: a client that delays display start by s extra rounds
// (prefilling its buffer with s fragments of headroom) only perceives a
// glitch when a fragment is more than s rounds late. On the server side a
// work-conserving scheduler can additionally start the next round's sweep
// as soon as the current one finishes, banking idle time as slack.
//
// The analytic side bounds the visible-glitch probability per round by
// the Chernoff tail of the sweep at the extended deadline (1+s)·t:
//
//	b_visible(N, t, s) = (1/N) Σ_{k=1..N} P[T_k ≥ (1+s)·t]
//
// treating rounds independently. That assumes each sweep starts on its
// round boundary, with no carry-over (W = 0) of an earlier sweep's
// overrun. Simulate starts sweep r at max(r·t, end of sweep r−1), so it
// has that carry-over and the bound does not account for it; ROADMAP.md
// item 13 measures the gap and names the bound that would close it.
package buffer

import (
	"errors"

	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/sim"
	"mzqos/internal/sweep"
)

// ErrConfig is returned for invalid buffering configurations.
var ErrConfig = errors.New("buffer: invalid configuration")

// VisibleGlitchBound bounds the probability that a stream with s rounds of
// client-side slack perceives a glitch in one round: the glitch bound read
// off the model's chain at (1+s)·t (the s=0 case is the paper's b_glitch of
// eq. 3.3.3).
func VisibleGlitchBound(m *model.Model, n, slackRounds int) (float64, error) {
	if m == nil || n <= 0 || slackRounds < 0 {
		return 0, ErrConfig
	}
	return m.GlitchBoundsAt(m.RoundLength() * float64(1+slackRounds))(n)
}

// NMaxBuffered returns the admission limit under a per-round
// visible-glitch threshold for clients with the given slack — the
// capacity gained by buffer memory. Beyond the tail criterion it enforces
// stability, E[T_N] < t: the independent-rounds bound is only meaningful
// when overruns do not accumulate round over round (an unstable sweep
// drifts later forever no matter how much the client buffers). One walk
// reads both off one chain at (1+s)·t.
func NMaxBuffered(m *model.Model, slackRounds int, delta float64) (int, error) {
	if m == nil || slackRounds < 0 || !(delta > 0 && delta < 1) {
		return 0, ErrConfig
	}
	visible := m.GlitchBoundsAt(m.RoundLength() * float64(1+slackRounds))
	exp, err := m.ExplainNMaxWith(func(n int) (float64, error) {
		b, err := visible(n)
		if err != nil {
			return 0, err
		}
		mean, _, err := m.RoundMoments(n)
		if err != nil {
			return 0, err
		}
		if mean >= m.RoundLength() {
			return 1, nil // unstable: reject regardless of the tail
		}
		return b, nil
	}, delta)
	if err != nil {
		return 0, err
	}
	if exp.Overload {
		return 0, model.ErrOverload
	}
	return exp.NMax, nil
}

// SimConfig configures the buffered-client simulator.
type SimConfig struct {
	// Sim is the underlying round workload (disk, sizes, round length, N).
	Sim sim.Config
	// SlackRounds is the client-side smoothing slack s.
	SlackRounds int
	// WorkConserving starts the next sweep as soon as the current one
	// finishes (early service banks additional slack); when false, sweeps
	// are gated to round boundaries as in the paper's base architecture.
	WorkConserving bool
}

// SimResult reports buffered playback quality.
type SimResult struct {
	// Rounds simulated.
	Rounds int
	// VisibleGlitchRate is the fraction of fragments delivered too late
	// for their (slack-shifted) display instant.
	VisibleGlitchRate float64
	// RawLateRate is the fraction of fragments that missed their own
	// round boundary (the paper's glitch definition; independent of s).
	RawLateRate float64
	// MeanOverrun is the average amount (seconds) by which sweeps ran
	// past their round end, over sweeps that overran.
	MeanOverrun float64
}

// Simulate plays `rounds` rounds with exact carry-over of sweep overruns:
// sweep r begins at max(r·t, completion of sweep r−1) (or exactly at
// completion when work-conserving), and the fragment of stream i in round
// r must complete by (r+1+s)·t to be displayed seamlessly.
func Simulate(cfg SimConfig, rounds int, seed uint64) (SimResult, error) {
	// A geometry disk.New did not build (Cylinders 0) has no address map
	// to draw from.
	if cfg.Sim.Disk == nil || cfg.Sim.Disk.Cylinders() == 0 || cfg.Sim.Sizes.Dist == nil ||
		!(cfg.Sim.RoundLength > 0) || cfg.Sim.N < 1 || cfg.SlackRounds < 0 || rounds < 1 {
		return SimResult{}, ErrConfig
	}
	rng := dist.NewRand(seed, seed^0x62756666)
	t := cfg.Sim.RoundLength
	n := cfg.Sim.N
	frags := make([]sweep.Fragment, n)
	reqs := make([]sweep.Request, n)
	var (
		clock      float64
		visible    int
		rawLate    int
		overrunSum float64
		overrunCnt int
	)
	for r := 0; r < rounds; r++ {
		roundStart := float64(r) * t
		if !cfg.WorkConserving && clock < roundStart {
			// Gated: never start before the boundary; carry only overrun.
			// Work-conserving starts at the previous completion instead.
			clock = roundStart
		}
		sweepStart := clock
		for i := range frags {
			loc := cfg.Sim.Disk.SampleLocation(rng)
			frags[i] = sweep.Fragment{Cylinder: loc.Cylinder, Zone: loc.Zone, Size: cfg.Sim.Sizes.Sample(rng), Ref: i}
		}
		tot := sweep.Serve(cfg.Sim.Disk, fault.Identity(), rng, nil, frags, reqs)
		deadlineRaw := roundStart + t
		deadlineVisible := roundStart + t*float64(1+cfg.SlackRounds)
		for i := range reqs {
			done := sweepStart + reqs[i].End
			if done > deadlineRaw {
				rawLate++
			}
			if done > deadlineVisible {
				visible++
			}
		}
		clock = sweepStart + tot.Busy
		if clock > deadlineRaw {
			overrunSum += clock - deadlineRaw
			overrunCnt++
		}
	}
	res := SimResult{Rounds: rounds}
	served := float64(n * rounds) // both validated ≥ 1 above
	res.VisibleGlitchRate = float64(visible) / served
	res.RawLateRate = float64(rawLate) / served
	if overrunCnt > 0 {
		res.MeanOverrun = overrunSum / float64(overrunCnt)
	}
	return res, nil
}

// ClientBufferBytes returns the client memory needed for s rounds of slack
// at the given size model's mean rate, including the paper's minimum
// double-buffer (one fragment being displayed, one arriving).
func ClientBufferBytes(meanFragment float64, slackRounds int) float64 {
	return meanFragment * float64(2+slackRounds)
}
