// Package sim implements the detailed disk simulator the paper validates
// its analytic model against (§4).
//
// One simulated round draws N requests — each with a placement uniform
// over the disk's bytes (which fixes its zone, transfer rate, and seek
// cylinder), a fragment size from the workload's size law, and a
// rotational latency uniform in [0, ROT) — serves them in SCAN order with
// the geometry's seek curve, and records which requests finish within the
// round. Monte-Carlo estimators aggregate rounds into p_late estimates
// (Figure 1) and whole stream histories into p_error estimates (Table 2),
// with Wilson confidence intervals and deterministic seeding: an
// estimator splits its trials into a fixed number of seeded shares, runs
// them on as many goroutines as there are Ps, and merges their tallies in
// share order, so a result depends on the seed alone.
package sim

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/sweep"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// ErrConfig is returned for invalid simulation configurations.
var ErrConfig = errors.New("sim: invalid configuration")

// Config describes the simulated system: one disk of a striped server and
// its per-round request load.
type Config struct {
	// Disk is the drive geometry.
	Disk *disk.Geometry
	// Sizes is the fragment-size law.
	Sizes workload.SizeModel
	// RoundLength is the scheduling round length t in seconds.
	RoundLength float64
	// N is the number of concurrent streams served by the disk per round.
	N int
	// Workers is the number of shares an estimator splits its trials
	// into: logical substreams, share w drawing from its own generator
	// (stream w·φ+1 of the seed), merged in share order. The result
	// depends on the seed and Workers, never on GOMAXPROCS; 0 means
	// defaultShares. min(GOMAXPROCS, Workers) goroutines run the shares.
	Workers int
	// Access optionally replaces uniform-over-sectors placement with a
	// zone-aware access profile (must match the geometry when set).
	Access disk.AccessProfile
	// Faults optionally perturbs the simulated service with the same
	// deterministic plans the server consumes: an identical (Plan, disk,
	// round) triple resolves to identical effects in both, so server runs
	// and simulations compare under the same fault schedule. The
	// stationary estimators (EstimatePLate, EstimatePError, MeasureRounds,
	// PositionBias) resolve the plan once at FaultRound and hold those
	// effects for every trial — they estimate the conditional probability
	// given that round's fault state. ReplayRounds advances the round
	// index through the plan's full timeline instead.
	Faults *fault.Plan
	// FaultDisk is the disk index this simulated drive plays in the plan.
	FaultDisk int
	// FaultRound is the round index at which the stationary estimators
	// resolve the plan's effects.
	FaultRound int
	// Trace optionally receives one RoundSpan per simulated round, with
	// per-request service events (see internal/trace). All workers of a
	// parallel estimator share the recorder, so spans from concurrent
	// trials interleave in commit order; the stationary estimators label
	// every span with FaultRound (EstimatePLate, MeasureRounds) or the
	// history round (EstimatePError), while ReplayRounds — being
	// single-threaded — emits a deterministic, gap-free stream suitable
	// for byte-identical replay comparison. Nil disables sim tracing.
	Trace *trace.Recorder
}

func (c Config) validate() error {
	if c.Disk == nil || c.Sizes.Dist == nil || !(c.RoundLength > 0) || c.N < 1 {
		return ErrConfig
	}
	if c.Access != nil && !c.Access.Valid(c.Disk) {
		return ErrConfig
	}
	if c.Faults != nil && c.FaultDisk < 0 {
		return ErrConfig
	}
	return nil
}

// injector builds the plan's injector (nil when no plan is configured;
// the fault package's nil injector resolves to identity effects).
func (c Config) injector() (*fault.Injector, error) {
	if c.Faults == nil {
		return nil, nil
	}
	return fault.NewInjector(*c.Faults, 0)
}

// stationaryEffects resolves the fault effects the stationary estimators
// simulate under: the plan evaluated at (FaultDisk, FaultRound).
func (c Config) stationaryEffects() (fault.Effects, error) {
	inj, err := c.injector()
	if err != nil {
		return fault.Effects{}, err
	}
	return inj.EffectsAt(c.FaultDisk, c.FaultRound), nil
}

// sampleLocation draws a request location under the configured placement.
func (c Config) sampleLocation(rng *rand.Rand) disk.Location {
	if c.Access != nil {
		return c.Disk.SampleLocationUnder(c.Access, rng)
	}
	return c.Disk.SampleLocation(rng)
}

// roundScratch holds per-goroutine buffers so the hot loop does not allocate.
type roundScratch struct {
	frags []sweep.Fragment
	reqs  []sweep.Request
	span  trace.RoundSpan // trace scratch, reused across rounds
}

// serve draws the round's N fragments, Ref naming each one's stream, and
// serves them through the sweep kernel; the returned requests are in SCAN
// order and live until the next call. A failed disk draws nothing (its
// fragments keep zero locations and sizes), so a failure does not shift
// the placements of the rounds that follow it.
func (sc *roundScratch) serve(cfg Config, eff fault.Effects, readErr func(pos, attempt int) bool, rng *rand.Rand) ([]sweep.Request, sweep.Totals) {
	if cap(sc.frags) < cfg.N {
		sc.frags = make([]sweep.Fragment, cfg.N)
		sc.reqs = make([]sweep.Request, cfg.N)
	}
	frags, reqs := sc.frags[:cfg.N], sc.reqs[:cfg.N]
	for i := range frags {
		frags[i] = sweep.Fragment{Ref: i}
		if !eff.Failed {
			loc := cfg.sampleLocation(rng)
			frags[i].Cylinder, frags[i].Zone = loc.Cylinder, loc.Zone
			frags[i].Size = cfg.Sizes.Sample(rng)
		}
	}
	return reqs, sweep.Serve(cfg.Disk, eff, rng, readErr, frags, reqs)
}

// simulateRound plays one round under the given fault effects: draws the N
// requests, serves them through the sweep kernel, and reports the round
// time (the down-round sentinel on a failed disk, where every request is
// lost outright) beside the sweep's phase totals. If lateFor is non-nil, it
// is filled with one bool per stream indicating whether that stream's
// request glitched (finished late or was lost). round labels the round in
// trace spans (it does not affect the service draws).
//
// readErr, when non-nil, decides read-error retries deterministically (the
// timeline replay wires it to the plan's hash draws so a server run under
// the same plan sees the identical error schedule); nil draws retries from
// rng at eff.ErrorProb, which is what the Monte-Carlo estimators want.
func simulateRound(cfg Config, eff fault.Effects, round int, readErr func(pos, attempt int) bool, rng *rand.Rand, sc *roundScratch, lateFor []bool) (total float64, tot sweep.Totals) {
	reqs, tot := sc.serve(cfg, eff, readErr, rng)
	total = tot.Busy
	if eff.Failed {
		total = sweep.DownRoundLengths * cfg.RoundLength
	}
	tracing := cfg.Trace.Enabled()
	sp := &sc.span
	if tracing {
		*sp = trace.RoundSpan{
			Round: round, Disk: cfg.FaultDisk, Requests: sp.Requests[:0],
			Seek: tot.Seek, Rotation: tot.Rotation, Transfer: tot.Transfer, Busy: tot.Busy,
			Observed: total, Lost: tot.Lost, Retries: tot.Retries,
			Faulty: eff.Active(), Down: eff.Failed,
		}
	}
	for i := range reqs {
		r := &reqs[i]
		late := !r.Lost && r.End > cfg.RoundLength
		if lateFor != nil {
			lateFor[r.Ref] = late || r.Lost
		}
		if tracing {
			if late {
				sp.Late++
			}
			sp.Append(int64(r.Ref), r, late)
		}
	}
	if tracing {
		cfg.Trace.Record(sp)
	}
	return total, tot
}

// Estimate is a Monte-Carlo probability estimate with a 95% Wilson score
// confidence interval.
type Estimate struct {
	// P is the point estimate k/n.
	P float64
	// Lo, Hi delimit the 95% Wilson interval.
	Lo, Hi float64
	// Hits is the number of positive outcomes.
	Hits int64
	// Trials is the number of observations.
	Trials int64
}

func newEstimate(hits, trials int64) Estimate {
	e := Estimate{Hits: hits, Trials: trials}
	if trials > 0 {
		e.P = float64(hits) / float64(trials)
	}
	e.Lo, e.Hi = dist.WilsonInterval(hits, trials, 1.96)
	return e
}

// defaultShares is the share count of a Config that leaves Workers zero.
const defaultShares = 8

// shares resolves the share count.
func (c Config) shares() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return defaultShares
}

// monteCarlo is the frame every estimator shares: check the configuration
// (valid carries the estimator's own preconditions), resolve the
// stationary fault effects, split n trials across the shares — the first
// n mod shares take one more — and run share w with its own generator,
// stream w·φ+1 of seed. min(GOMAXPROCS, shares) goroutines pull the shares
// in turn, each with its own scratch. The results come back in share
// order, so merging them is reproducible for a given seed at any width.
func monteCarlo[T any](cfg Config, valid bool, n int, seed uint64, share func(n int, eff fault.Effects, rng *rand.Rand, sc *roundScratch) T) ([]T, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !valid {
		return nil, ErrConfig
	}
	eff, err := cfg.stationaryEffects()
	if err != nil {
		return nil, err
	}
	out := make([]T, cfg.shares())
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(out)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc roundScratch
			for w := int(next.Add(1)) - 1; w < len(out); w = int(next.Add(1)) - 1 {
				k := n / len(out)
				if w < n%len(out) {
					k++
				}
				out[w] = share(k, eff, dist.NewRand(seed, uint64(w)*0x9e3779b97f4a7c15+1), &sc)
			}
		}()
	}
	wg.Wait()
	return out, nil
}

func sum(xs []int64) (total int64) {
	for _, x := range xs {
		total += x
	}
	return total
}

// EstimatePLate estimates p_late(N, t): the probability that one round's
// total service time exceeds the round length (the simulated curve of
// Figure 1). trials rounds are split across Config.Workers seeded shares,
// so seed alone makes the result reproducible.
func EstimatePLate(cfg Config, trials int, seed uint64) (Estimate, error) {
	hits, err := monteCarlo(cfg, trials >= 1, trials, seed,
		func(n int, eff fault.Effects, rng *rand.Rand, sc *roundScratch) (h int64) {
			for i := 0; i < n; i++ {
				if total, _ := simulateRound(cfg, eff, cfg.FaultRound, nil, rng, sc, nil); total > cfg.RoundLength {
					h++
				}
			}
			return h
		})
	if err != nil {
		return Estimate{}, err
	}
	return newEstimate(sum(hits), int64(trials)), nil
}

// EstimatePError estimates p_error(N, t, M, g): the probability that one
// stream suffers at least g glitches over M rounds (the simulated column
// of Table 2). Each of runs independent histories simulates M rounds of N
// streams with fresh placements; every stream in every run is one
// observation, so the estimate is over runs·N stream histories.
func EstimatePError(cfg Config, rounds, glitches, runs int, seed uint64) (Estimate, error) {
	valid := rounds >= 1 && glitches >= 0 && glitches <= rounds && runs >= 1
	hits, err := monteCarlo(cfg, valid, runs, seed^0xabcdef,
		func(n int, eff fault.Effects, rng *rand.Rand, sc *roundScratch) (h int64) {
			late := make([]bool, cfg.N)
			counts := make([]int, cfg.N)
			for run := 0; run < n; run++ {
				clear(counts)
				for r := 0; r < rounds; r++ {
					simulateRound(cfg, eff, r, nil, rng, sc, late)
					for s, isLate := range late {
						if isLate {
							counts[s]++
						}
					}
				}
				for _, c := range counts {
					if c >= glitches {
						h++
					}
				}
			}
			return h
		})
	if err != nil {
		return Estimate{}, err
	}
	return newEstimate(sum(hits), int64(runs)*int64(cfg.N)), nil
}

// RoundStats summarizes simulated round service times.
type RoundStats struct {
	// Mean and Std are the sample moments of the total round time.
	Mean, Std float64
	// PLate is the fraction of rounds exceeding the round length.
	PLate float64
	// Trials is the number of simulated rounds.
	Trials int64
}

// MeasureRounds simulates rounds and returns summary statistics, used to
// cross-validate the analytic round moments.
func MeasureRounds(cfg Config, trials int, seed uint64) (RoundStats, error) {
	type part struct {
		acc  dist.Welford
		late int64
	}
	parts, err := monteCarlo(cfg, trials >= 1, trials, seed^0x5eed,
		func(n int, eff fault.Effects, rng *rand.Rand, sc *roundScratch) (p part) {
			for i := 0; i < n; i++ {
				total, _ := simulateRound(cfg, eff, cfg.FaultRound, nil, rng, sc, nil)
				p.acc.Add(total)
				if total > cfg.RoundLength {
					p.late++
				}
			}
			return p
		})
	if err != nil {
		return RoundStats{}, err
	}
	var all part
	for _, p := range parts {
		all.acc.Merge(p.acc)
		all.late += p.late
	}
	return RoundStats{
		Mean:   all.acc.Mean(),
		Std:    all.acc.Std(),
		PLate:  float64(all.late) / float64(all.acc.N()),
		Trials: all.acc.N(),
	}, nil
}

// PositionBias estimates the per-request glitch probability by SCAN
// position: requests served late in the sweep are far more likely to miss
// the deadline. This is exactly why §3.3 requires fragments to occupy
// "uncorrelated positions of the sweeps" across rounds — random placement
// turns this positional unfairness into a fair lottery over streams. The
// returned slice has one estimate per sweep position (0 = first served).
func PositionBias(cfg Config, trials int, seed uint64) ([]Estimate, error) {
	hits, err := monteCarlo(cfg, trials >= 1, trials, seed^0xb1a5,
		func(n int, eff fault.Effects, rng *rand.Rand, sc *roundScratch) []int64 {
			h := make([]int64, cfg.N)
			for i := 0; i < n; i++ {
				reqs, _ := sc.serve(cfg, eff, nil, rng)
				for pos := range reqs {
					if reqs[pos].Lost || reqs[pos].End > cfg.RoundLength {
						h[pos]++
					}
				}
			}
			return h
		})
	if err != nil {
		return nil, err
	}
	out := make([]Estimate, cfg.N)
	for pos := range out {
		var total int64
		for _, h := range hits {
			total += h[pos]
		}
		out[pos] = newEstimate(total, int64(trials))
	}
	return out, nil
}

// RoundOutcome is one replayed round's result.
type RoundOutcome struct {
	// Round is the timeline round index.
	Round int
	// Total is the sweep's service time T_N (the down-round sentinel when
	// the disk was failed).
	Total float64
	// Glitches is the number of requests that missed the deadline or were
	// lost; Lost is the undelivered subset.
	Glitches int
	Lost     int
	// Faulty marks a round with any active fault effect; Down a fully
	// failed disk.
	Faulty bool
	Down   bool
}

// ReplayRounds plays `rounds` consecutive rounds through the configured
// fault plan's timeline, starting at round 0: each round's effects are
// resolved at its own index (unlike the stationary estimators), and
// read-error retries follow the plan's deterministic hash draws — so a
// server running under the same plan experiences the identical fault
// schedule round for round. The replay is single-threaded by design; seed
// makes it reproducible.
func ReplayRounds(cfg Config, rounds int, seed uint64) ([]RoundOutcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rounds < 1 {
		return nil, ErrConfig
	}
	inj, err := cfg.injector()
	if err != nil {
		return nil, err
	}
	rng := dist.NewRand(seed, seed^0x9e3779b97f4a7c15)
	var sc roundScratch
	late := make([]bool, cfg.N)
	out := make([]RoundOutcome, 0, rounds)
	for r := 0; r < rounds; r++ {
		eff := inj.EffectsAt(cfg.FaultDisk, r)
		readErr := func(pos, attempt int) bool {
			return inj.ReadError(cfg.FaultDisk, r, pos, attempt)
		}
		total, tot := simulateRound(cfg, eff, r, readErr, rng, &sc, late)
		glitches := 0
		for _, l := range late {
			if l {
				glitches++
			}
		}
		out = append(out, RoundOutcome{
			Round:    r,
			Total:    total,
			Glitches: glitches,
			Lost:     tot.Lost,
			Faulty:   eff.Active(),
			Down:     eff.Failed,
		})
	}
	return out, nil
}

// PLateSweep estimates p_late across a range of multiprogramming levels
// (the simulated series of Figure 1). The returned slice has one Estimate
// per N in [nLo, nHi].
func PLateSweep(cfg Config, nLo, nHi, trials int, seed uint64) ([]Estimate, error) {
	if nLo < 1 || nHi < nLo {
		return nil, ErrConfig
	}
	out := make([]Estimate, 0, nHi-nLo+1)
	for n := nLo; n <= nHi; n++ {
		c := cfg
		c.N = n
		e, err := EstimatePLate(c, trials, seed+uint64(n))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
