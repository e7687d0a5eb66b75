package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/workload"
)

// Common scenario, the mzserver defaults every workload shares.
const (
	roundLength    = 1.0  // t, seconds
	guaranteeDelta = 0.01 // δ: P[T_N ≥ t] ≤ δ, which yields N_max = 26 per disk
	zipfExponent   = 0.8
	catalogClips   = 400
	// nominalSeconds is the run length the round counts below were sized
	// for on the reference 2-core host: run.sh turns --seconds S into rounds
	// factor S/nominalSeconds.
	nominalSeconds = 10
	// laps is how many times an untraced run executes its workload, each
	// time from a cold build and over the same inputs: a workload's Rounds
	// are shared out among the laps, setup_s is the median of their builds,
	// and each segment's host time is the fastest any lap measured it.
	laps = 10
	// tracedShare is the traced run's length as a share of the untraced one.
	tracedShare = 0.25
	// ladderRounds is the measured length of each cost-ladder rung at
	// factor 1; the ladder runs on ladderWorkload's inputs.
	ladderRounds   = 40000
	ladderWorkload = "steady-1x4"
)

// faultWindow schedules one fault on one shard over a share of the
// measured phase, so the same arc plays at any rounds factor.
type faultWindow struct {
	shard      int
	spec       string // fault.ParsePlan entry without from/until
	from, till float64
}

// workloadSpec is one benchmark workload: the engine shape mzserver would
// be started with, and the arrival process driven through it.
type workloadSpec struct {
	Name string
	// Why records what the workload stresses that the others do not; the
	// same line is stored in BENCHMARK.json.
	Why string

	Shards   int // 1 = single server, >1 = cluster.Coordinator over that many
	Disks    int
	ClipMean float64 // geometric mean clip length in rounds
	Arrivals float64 // Poisson mean per round
	Warmup   int     // rounds before the measured phase, at factor ≥ 1
	Rounds   int     // measured rounds at factor 1

	Route    string
	Replicas int
	Migrate  bool
	Degrade  bool
	Faults   []faultWindow
	// Scrape adds the open-loop reader goroutine beside the round loop.
	Scrape bool
	// Correlated marks a workload outside the model's independence
	// assumption, whose disks are therefore not held to the analytic
	// bounds at exit: 4-round clips under Zipf popularity put many
	// concurrent streams on the same few fragments, and some seeds exceed
	// b_glitch (seed 109: disk 0 at 2.57e-4 against 1.72e-4).
	Correlated bool
}

func (w *workloadSpec) cluster() bool { return w.Shards > 1 }
func (w *workloadSpec) healthy() bool { return len(w.Faults) == 0 }

// procs is the GOMAXPROCS the workload runs at, set by main before each run
// and recorded in the report: the shipped width, min(CPUs, 4), for a single
// server; one P for a coordinator. A coordinator round hands some 200 µs of
// shard work to a second P, and on the few shared vCPUs the benchmark is
// given, waking that P costs what the host says it costs: two Ps made a
// round a tenth faster in a quiet hour and a sixth slower in a noisy one,
// and whole runs differed five times as much as at one P (README.md,
// "Noise").
func (w *workloadSpec) procs() int {
	if w.cluster() {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

var workloads = []*workloadSpec{
	{
		Name:   "steady-1x4",
		Why:    "one all-on 4-disk server at 2x offered load with long clips: the SCAN sweep and its observers in Step do >90% of the work, Open almost none",
		Shards: 1, Disks: 4, ClipMean: 600, Arrivals: 0.35, Warmup: 6000, Rounds: 300000,
	},
	{
		Name:   "churn-1x4",
		Why:    "same server, 4-round clips at 40 arrivals/round: admit/retire/journal/ledger writes are a third of wall time, so a Step gain bought with a slower admit path shows its cost",
		Shards: 1, Disks: 4, ClipMean: 4, Arrivals: 40, Warmup: 6000, Rounds: 150000,
		Correlated: true,
	},
	{
		Name:   "cluster-8x4",
		Why:    "8 shards behind the coordinator, faults idle: goroutine fan-out/fan-in, ticket CAS, heartbeats and an 8x registry dominate; the bypass workload for fault and migration changes",
		Shards: 8, Disks: 4, ClipMean: 600, Arrivals: 2.8, Warmup: 5000, Rounds: 30000,
		Route: "least-loaded", Replicas: 2, Migrate: true,
	},
	{
		Name:   "faults-4x4",
		Why:    "4 shards under scheduled latency, rate, read-error and disk-failure faults: the only workload where injector, degrade re-solve, migration, failover and SLO transitions run",
		Shards: 4, Disks: 4, ClipMean: 600, Arrivals: 1.4, Warmup: 5000, Rounds: 40000,
		Route: "least-loaded", Replicas: 2, Migrate: true, Degrade: true,
		Faults: []faultWindow{
			{shard: 0, spec: "latency:disk=0,factor=1.5", from: 0.10, till: 0.30},
			{shard: 0, spec: "rate:disk=2,factor=0.7", from: 0.80, till: 0.90},
			{shard: 1, spec: "errors:disk=all,prob=0.02,retries=2", from: 0.40, till: 0.60},
			{shard: 2, spec: "fail:disk=1", from: 0.70, till: 0.75},
		},
	},
	{
		Name:   "scrape-1x4",
		Why:    "steady-1x4 inputs plus an open-loop reader of every observability surface: reads beside writes on each bounded store, seen as reader latency one way and loop stall the other",
		Shards: 1, Disks: 4, ClipMean: 600, Arrivals: 0.35, Warmup: 6000, Rounds: 300000,
		Scrape: true,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a run feeds the engines, generated from the seed
// before any clock starts: the catalog, and per round the clips that are
// opened. Arrivals are flat slices so the timed loop draws nothing.
type inputs struct {
	spec     *workloadSpec
	seed     uint64
	warmup   int
	rounds   int // measured rounds
	segments int

	names []string    // catalog names, "clip-0000"…
	sizes [][]float64 // per-clip fragment sizes in bytes
	// Round r opens clips arrClip[arrEnd[r-1]:arrEnd[r]] (arrEnd[-1] = 0).
	arrEnd  []int32
	arrClip []uint16
	// plans[i] is shard i's fault plan (nil = healthy), in engine rounds.
	plans []*fault.Plan
}

// scaleRounds applies the common rounds factor to a nominal round count.
func scaleRounds(nominal int, factor float64) int {
	n := int(math.Round(float64(nominal) * factor))
	if n < 10 {
		n = 10
	}
	return n
}

// segmentsFor splits a measured phase into 20 equal-round segments, fewer
// (never below 10) when rounds are too scarce for 20 of at least 10 rounds.
func segmentsFor(rounds int) int {
	s := rounds / 10
	if s > 20 {
		s = 20
	}
	if s < 10 {
		s = 10
	}
	return s
}

// measuredRounds trims a round count to a whole number of segments.
func measuredRounds(rounds int) int { return rounds - rounds%segmentsFor(rounds) }

// generate draws a workload's inputs for the given seed. The draw order is
// mzserver's (catalog first, then per round a Poisson count and that many
// Zipf picks from one generator), so for a fixed seed a shorter run's
// inputs are a prefix of a longer run's.
func generate(spec *workloadSpec, seed uint64, warmup, rounds int) (*inputs, error) {
	sizes := workload.PaperSizes()
	rng := dist.NewRand(seed, seed^0xfeed)
	in := &inputs{
		spec:     spec,
		seed:     seed,
		warmup:   warmup,
		rounds:   measuredRounds(rounds),
		segments: segmentsFor(rounds),
		names:    make([]string, catalogClips),
		sizes:    make([][]float64, catalogClips),
		plans:    make([]*fault.Plan, spec.Shards),
	}
	for i := range in.names {
		in.names[i] = fmt.Sprintf("clip-%04d", i)
		frags := make([]float64, 1+geometric(spec.ClipMean, rng))
		for j := range frags {
			frags[j] = sizes.Sample(rng)
		}
		in.sizes[i] = frags
	}
	pop, err := workload.NewZipf(catalogClips, zipfExponent)
	if err != nil {
		return nil, fmt.Errorf("building popularity law: %w", err)
	}
	total := in.warmup + in.rounds
	in.arrEnd = make([]int32, total)
	in.arrClip = make([]uint16, 0, int(float64(total)*spec.Arrivals*1.05)+64)
	for r := 0; r < total; r++ {
		for k := poisson(spec.Arrivals, rng); k > 0; k-- {
			in.arrClip = append(in.arrClip, uint16(pop.Sample(rng)))
		}
		in.arrEnd[r] = int32(len(in.arrClip))
	}
	for shard := range in.plans {
		planSpec := ""
		for _, fw := range spec.Faults {
			if fw.shard != shard {
				continue
			}
			from := in.warmup + int(fw.from*float64(in.rounds))
			till := in.warmup + int(fw.till*float64(in.rounds))
			planSpec += fmt.Sprintf("%s,from=%d,until=%d;", fw.spec, from, till)
		}
		if planSpec == "" {
			continue
		}
		p, err := fault.ParsePlan(planSpec, seed)
		if err != nil {
			return nil, fmt.Errorf("shard %d fault plan: %w", shard, err)
		}
		if err := p.Validate(spec.Disks); err != nil {
			return nil, fmt.Errorf("shard %d fault plan: %w", shard, err)
		}
		in.plans[shard] = &p
	}
	return in, nil
}

// arrivals returns the clip indices opened in round r.
func (in *inputs) arrivals(r int) []uint16 {
	lo := int32(0)
	if r > 0 {
		lo = in.arrEnd[r-1]
	}
	return in.arrClip[lo:in.arrEnd[r]]
}

// poisson and geometric are mzserver's arrival and clip-length draws.
func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func geometric(mean float64, rng *rand.Rand) int {
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	n := 0
	for rng.Float64() > p && n < 1<<20 {
		n++
	}
	return n
}
