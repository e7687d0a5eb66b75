package mixed

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"

	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/sweep"
)

// SimResult summarizes a mixed-workload simulation.
type SimResult struct {
	// Rounds simulated.
	Rounds int
	// ContinuousGlitchRate is the fraction of continuous requests that
	// missed the full round deadline t (not the shortened effective
	// round — the reserve is a scheduling budget, not a deadline).
	ContinuousGlitchRate float64
	// ContinuousOverrunRate is the fraction of rounds where the
	// continuous sweep ran past its (1−reserve)·t budget and ate into the
	// discrete period.
	ContinuousOverrunRate float64
	// DiscreteServed is the number of discrete requests completed.
	DiscreteServed int
	// DiscreteMeanResponse is the mean response time (arrival to
	// completion) of served discrete requests, in seconds.
	DiscreteMeanResponse float64
	// DiscreteP95Response is the 95th-percentile response time.
	DiscreteP95Response float64
	// DiscreteMaxQueue is the largest backlog observed.
	DiscreteMaxQueue int
}

// discreteJob is one queued discrete request.
type discreteJob struct {
	arrival float64 // absolute time in seconds
	size    float64
}

// Simulate plays `rounds` rounds of the mixed schedule with n continuous
// streams: each round serves the continuous SCAN sweep first, then drains
// the discrete FCFS queue until the round ends (non-preemptive: a request
// starts only if the round has time left; it may finish past the round
// boundary, which the next round absorbs). Discrete requests arrive
// Poisson at cfg.DiscreteRate with uniform arrival instants per round.
func Simulate(cfg Config, n, rounds int, seed uint64) (SimResult, error) {
	if err := cfg.validate(); err != nil {
		return SimResult{}, err
	}
	if n < 0 || rounds < 1 {
		return SimResult{}, ErrConfig
	}
	rng := dist.NewRand(seed, seed^0x6d69786564)
	t := cfg.RoundLength
	budget := t * (1 - cfg.Reserve)

	var (
		queue     []discreteJob
		responses []float64
		glitches  int
		overruns  int
		maxQueue  int
		carryOver float64 // discrete work running past the round end
	)
	frags := make([]sweep.Fragment, n)
	reqs := make([]sweep.Request, n)
	for r := 0; r < rounds; r++ {
		roundStart := float64(r) * t
		sweepStart := roundStart + carryOver
		carryOver = 0

		// Continuous sweep first, begun once the carried-over discrete
		// work is done; its deadline is the round end.
		for i := range frags {
			loc := cfg.Disk.SampleLocation(rng)
			frags[i] = sweep.Fragment{Cylinder: loc.Cylinder, Zone: loc.Zone, Size: cfg.ContinuousSizes.Sample(rng), Ref: i}
		}
		tot := sweep.Serve(cfg.Disk, fault.Identity(), rng, nil, frags, reqs)
		for i := range reqs {
			if sweepStart+reqs[i].End > roundStart+t {
				glitches++
			}
		}
		clock := sweepStart + tot.Busy
		if clock > roundStart+budget {
			overruns++
		}

		// Discrete arrivals of this round join the queue (sorted by
		// arrival; Poisson arrivals are uniform given the count).
		if cfg.DiscreteRate > 0 {
			k := poisson(cfg.DiscreteRate*t, rng)
			for i := 0; i < k; i++ {
				queue = append(queue, discreteJob{
					arrival: roundStart + rng.Float64()*t,
					size:    cfg.DiscreteSizes.Sample(rng),
				})
			}
			slices.SortFunc(queue, func(a, b discreteJob) int { return cmp.Compare(a.arrival, b.arrival) })
		}
		if len(queue) > maxQueue {
			maxQueue = len(queue)
		}

		// Drain the queue in the remaining round time. A job can only
		// start after it has arrived and before the round ends.
		roundEnd := roundStart + t
		for len(queue) > 0 {
			job := queue[0]
			start := math.Max(clock, job.arrival)
			if start >= roundEnd {
				break
			}
			loc := cfg.Disk.SampleLocation(rng)
			// Discrete requests seek from wherever the arm is — model a
			// random independent seek (uniform distance draw).
			d := float64(rng.IntN(cfg.Disk.Cylinders()))
			svc := cfg.Disk.Seek.Time(math.Abs(d-float64(loc.Cylinder))) +
				rng.Float64()*cfg.Disk.RotationTime +
				cfg.Disk.TransferTime(job.size, loc.Zone)
			clock = start + svc
			responses = append(responses, clock-job.arrival)
			queue = queue[1:]
			if clock > roundEnd {
				carryOver = clock - roundEnd
				break
			}
		}
	}

	res := SimResult{
		Rounds:           rounds,
		DiscreteServed:   len(responses),
		DiscreteMaxQueue: maxQueue,
	}
	if n > 0 {
		res.ContinuousGlitchRate = float64(glitches) / float64(n*rounds)
	}
	res.ContinuousOverrunRate = float64(overruns) / float64(rounds)
	if len(responses) > 0 {
		var sum float64
		for _, v := range responses {
			sum += v
		}
		res.DiscreteMeanResponse = sum / float64(len(responses))
		slices.Sort(responses)
		idx := int(0.95 * float64(len(responses)-1))
		res.DiscreteP95Response = responses[idx]
	}
	return res, nil
}

// poisson draws a Poisson variate with mean lambda (Knuth for small means,
// normal approximation above 64 — arrival counts per round are small).
func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
