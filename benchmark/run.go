package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"

	"mzqos/internal/disk"
	"mzqos/internal/model"
)

// metricValue is one reported metric: the median across the run's segments
// (or the exact simulated value) with the spread it was read from.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Spread is (Q3-Q1)/median within this run: the same-code noise
	// recorded beside the bound.
	Spread float64 `json:"spread"`
	Exact  bool    `json:"exact,omitempty"`
}

// workloadReport is one workload's part of a result file.
type workloadReport struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     uint64  `json:"seed"`
	Factor   float64 `json:"rounds_factor"`
	// GOMAXPROCS is the width the workload ran at: main sets
	// workloadSpec.procs before each run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Laps, Rounds, Warmup and Segments describe the untraced run, rounds
	// and segments per lap; TracedRounds the traced one.
	Laps         int `json:"laps,omitempty"`
	Rounds       int `json:"rounds,omitempty"`
	Warmup       int `json:"warmup"`
	Segments     int `json:"segments,omitempty"`
	TracedRounds int `json:"traced_rounds,omitempty"`
	// SimDigest hashes every measured round of the untraced run;
	// TracedSimDigest the traced run, which must equal its untraced
	// baseline over the same rounds (and, on steady-1x4, every ladder rung
	// over their common prefix).
	SimDigest       string `json:"sim_digest,omitempty"`
	TracedSimDigest string `json:"traced_sim_digest,omitempty"`
	SpanFile        string `json:"span_file,omitempty"`

	tally
	Metrics map[string]metricValue `json:"metrics"`
}

func newReport(spec *workloadSpec, seed uint64, factor float64) *workloadReport {
	return &workloadReport{
		Workload: spec.Name, Why: spec.Why, Seed: seed, Factor: factor,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Warmup:     scaleWarmup(spec.Warmup, factor),
		Metrics:    map[string]metricValue{},
	}
}

// put records a metric by its table entry; a name missing from the table is
// a bug in the benchmark.
func (rep *workloadReport) put(name string, s summary) {
	def := findMetric(name)
	if def == nil {
		panic("benchmark: metric " + name + " is not in the metric table")
	}
	if !def.appliesTo(rep.Workload) {
		s = exact(0)
	}
	rep.Metrics[name] = metricValue{
		Value: s.Median, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Q1: s.Q1, Q3: s.Q3, N: s.N, Spread: s.relSpread(), Exact: def.Exact,
	}
}

// absorbRun folds one drive's tally, and its reader's, into the report.
func (rep *workloadReport) absorbRun(res *runResult) {
	rep.absorb(res.tally)
	rep.absorb(res.scrape.tally)
}

// scaleWarmup shortens the warm-up with the run for factors below 1 (tests)
// and leaves it alone above: it only has to wrap the rings once.
func scaleWarmup(nominal int, factor float64) int {
	return scaleRounds(nominal, math.Min(1, factor))
}

// setup makes n cold builds and returns the last instance with every
// build's times. Each build starts from a collected heap with the previous
// instance dropped, so where a GC cycle falls does not decide its time.
func setup(in *inputs, o buildOpts, n int) (*instance, []buildTimes, error) {
	var inst *instance
	times := make([]buildTimes, n)
	for i := range times {
		inst = nil
		runtime.GC()
		var err error
		if inst, times[i], err = build(in, o); err != nil {
			return nil, nil, err
		}
	}
	return inst, times, nil
}

func buildSummary(times []buildTimes, pick func(buildTimes) float64) summary {
	vals := make([]float64, len(times))
	for i, bt := range times {
		vals[i] = pick(bt)
	}
	return summarize(vals)
}

// segSummary reduces each segment to one number and summarizes across them.
func segSummary(segs []segment, pick func(*segment) float64) summary {
	vals := make([]float64, 0, len(segs))
	for i := range segs {
		if v := pick(&segs[i]); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return summarize(vals)
}

// fastestLaps reduces the laps of a run — the same simulated rounds,
// executed once per lap — to one host-time record per segment: every figure
// is the fastest any lap measured it. What the host does beside the
// benchmark only ever adds time, so the fastest execution of a piece of work
// says most about what the program costs, and a slow spell has to cover the
// same segment of every lap to move it.
func fastestLaps(runs []*runResult) []segment {
	segs := append([]segment(nil), runs[0].segs...)
	for _, run := range runs[1:] {
		for i := range segs {
			s, o := &segs[i], &run.segs[i]
			s.roundNs = min(s.roundNs, o.roundNs)
			s.openNs = min(s.openNs, o.openNs)
			s.p50Ns = min(s.p50Ns, o.p50Ns)
			s.p99Ns = min(s.p99Ns, o.p99Ns)
		}
	}
	return segs
}

// putHostTime records the host-time metrics of the round loop, per segment
// first and then the median across segments, from an untraced run.
func (rep *workloadReport) putHostTime(segs []segment) {
	rep.put("frag_per_s", segSummary(segs, func(s *segment) float64 { return float64(s.requests) / (float64(s.roundNs) / 1e9) }))
	rep.put("round_p50_us", segSummary(segs, func(s *segment) float64 { return s.p50Ns / 1e3 }))
	rep.put("round_p99_us", segSummary(segs, func(s *segment) float64 { return s.p99Ns / 1e3 }))
	rep.put("open_ns", segSummary(segs, func(s *segment) float64 { return float64(s.openNs) / float64(s.opens) }))
}

// putSpecific records the end-to-end metrics that are defined on some
// workloads only (zero elsewhere), from an untraced run's simulated totals
// and its reader.
func (rep *workloadReport) putSpecific(m *simTotals, scrape *scrapeResult) {
	rep.put("glitch_rate", exact(float64(m.Glitches)/float64(m.Requests)))
	rep.put("stream_loss_rate", exact(float64(m.Evicted+m.FailedOver-m.Migrated)/float64(m.admitted())))
	sort.Float64s(scrape.lightMs)
	rep.put("scrape_p50_ms", summarize(scrape.lightMs))
	rep.put("scrape_p95_ms", exact(percentile(scrape.lightMs, 0.95)))
	rep.put("bundle_p50_ms", summarize(scrape.heavyMs))
}

// runUntraced is the run every end-to-end number comes from: nLaps times a
// cold build and the closed loop with no tracing over the same inputs, the
// workload's rounds shared out among the laps. The simulation repeats lap
// for lap (the digests must agree); host time is the fastest lap's, segment
// by segment, and the reader's cycles are pooled.
func runUntraced(spec *workloadSpec, seed uint64, factor float64, nLaps int) (*workloadReport, error) {
	rep := newReport(spec, seed, factor)
	in, err := generate(spec, seed, rep.Warmup, scaleRounds(spec.Rounds, factor/float64(nLaps)))
	if err != nil {
		return nil, err
	}
	rep.Laps, rep.Rounds, rep.Segments = nLaps, in.rounds, in.segments
	var inst *instance
	var scrape scrapeResult
	times := make([]buildTimes, nLaps)
	runs := make([]*runResult, nLaps)
	for i := range runs {
		// Each build starts from a collected heap with the previous lap's
		// instance dropped, so where a GC cycle falls does not decide its time.
		inst = nil
		runtime.GC()
		if inst, times[i], err = build(in, buildOpts{layers: allLayers}); err != nil {
			return nil, err
		}
		runs[i] = drive(in, inst, nil, 0)
		rep.absorbRun(runs[i])
		if runs[i].digest != runs[0].digest {
			rep.fail("lap %d digest %016x differs from the first lap's %016x", i, runs[i].digest, runs[0].digest)
		}
		scrape.lightMs = append(scrape.lightMs, runs[i].scrape.lightMs...)
		scrape.heavyMs = append(scrape.heavyMs, runs[i].scrape.heavyMs...)
	}
	rep.put("setup_s", buildSummary(times, func(bt buildTimes) float64 { return bt.total.Seconds() }))
	rep.putHostTime(fastestLaps(runs))
	rep.putSpecific(&runs[0].measured, &scrape)
	rep.SimDigest = fmt.Sprintf("%016x", runs[0].digest)
	// Weigh what the system keeps live, not the driver's generated inputs.
	*in = inputs{}
	rep.put("heap_live_mb", exact(heapLiveMB()))
	runtime.KeepAlive(inst)
	return rep, nil
}

// runTraced produces the per-layer numbers: an untraced baseline and a
// traced run over the same quarter-length inputs (their digests must match
// and their difference is the tracing overhead), direct calls into each
// read path, and on steady-1x4 the Step cost ladder. Spans go to outDir.
func runTraced(spec *workloadSpec, seed uint64, factor float64, builds int, outDir string) (*workloadReport, error) {
	rep := newReport(spec, seed, factor)
	rounds := scaleRounds(spec.Rounds, factor*tracedShare)
	in, err := generate(spec, seed, rep.Warmup, rounds)
	if err != nil {
		return nil, err
	}
	rep.TracedRounds = in.rounds

	// Untraced baseline over the traced run's rounds. On steady-1x4 its
	// digest is also taken where the shorter ladder rungs will end.
	digestMark := 0
	if mark := measuredRounds(scaleRounds(ladderRounds, factor)); spec.Name == ladderWorkload && mark <= in.rounds {
		digestMark = mark
	}
	inst, times, err := setup(in, buildOpts{layers: allLayers}, builds)
	if err != nil {
		return nil, err
	}
	rep.put("server.new_ms", buildSummary(times, func(bt buildTimes) float64 { return bt.serverNew.Seconds() * 1e3 }))
	rep.put("server.catalog_ms", buildSummary(times, func(bt buildTimes) float64 { return bt.catalog.Seconds() * 1e3 }))
	base := drive(in, inst, nil, digestMark)
	rep.absorbRun(base)
	rep.putHostTime(base.segs)
	rep.putSpecific(&base.measured, &base.scrape)
	inst = nil

	// Traced run.
	mt0 := model.Telemetry()
	rec := newSpanRec(0)
	inst, _, err = build(in, buildOpts{layers: allLayers, traced: rec})
	if err != nil {
		return nil, err
	}
	res := drive(in, inst, rec, 0)
	mt1 := model.Telemetry()
	rep.absorbRun(res)
	rep.TracedSimDigest = fmt.Sprintf("%016x", res.digest)
	if res.digest != base.digest {
		rep.fail("traced run digest %016x differs from its untraced baseline %016x", res.digest, base.digest)
	}

	rep.putCounts(in, inst, res, mt0, mt1)
	rep.putSpans(in, rec, res)
	// Segment i of both runs executes the same rounds.
	overhead := make([]float64, len(res.segs))
	for i := range overhead {
		overhead[i] = 100 * (res.segs[i].p50Ns/base.segs[i].p50Ns - 1)
	}
	rep.put("trace_overhead_pct", summarize(overhead))
	rep.put("go.gc_cycles", exact(float64(base.gcCycles)))
	rep.put("go.gc_pause_total_ms", exact(float64(base.gcPauseNs)/1e6))
	rep.put("go.alloc_mb_per_s", exact(float64(base.allocBytes)/(1<<20)/base.wall.Seconds()))
	rep.put("scrape.cycles", exact(float64(len(base.scrape.lightMs))))
	sort.Float64s(base.scrape.latenessMs)
	rep.put("scrape.lateness_p95_ms", exact(percentile(base.scrape.latenessMs, 0.95)))

	v, err := solveMs(disk.QuantumViking21())
	if err != nil {
		return nil, fmt.Errorf("timing the admission solve: %w", err)
	}
	rep.put("model.setup_solve_ms", v)
	if v, err = degradeSolveMs(in); err != nil {
		return nil, fmt.Errorf("timing the degraded solve: %w", err)
	}
	rep.put("model.degrade_solve_ms", v)
	readProbes(in, inst, rep.put, rep.fail)

	var lad *ladderResult
	if spec.Name == ladderWorkload {
		if lad, err = runLadder(spec, seed, factor); err != nil {
			return nil, err
		}
	}
	rep.putLadder(lad, base)

	if outDir != "" {
		rep.SpanFile = filepath.Join(outDir, "spans-"+spec.Name+".csv")
		if err := writeSpans(rep.SpanFile, rec, spec.Name, seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// putCounts records the work each layer did in the traced run, as counts.
func (rep *workloadReport) putCounts(in *inputs, inst *instance, res *runResult, mt0, mt1 model.TelemetrySnapshot) {
	m := &res.measured
	rep.put("model.cold_solves", exact(float64(mt1.ColdSolves-mt0.ColdSolves)))
	rep.put("model.warm_solves", exact(float64(mt1.WarmSolves-mt0.WarmSolves)))
	rep.put("model.chain_hits", exact(float64(mt1.ChainHits-mt0.ChainHits)))
	rep.put("model.search_probes", exact(float64(mt1.SearchProbes-mt0.SearchProbes)))
	rep.put("server.open_calls", exact(float64(m.OpenCalls)))
	rep.put("server.open_rejected", exact(float64(m.OpenRejected)))
	rep.put("server.frag_per_step", exact(float64(m.Requests)/float64(m.Rounds*in.spec.Shards)))
	rep.put("server.glitches", exact(float64(m.Glitches)))
	rep.put("server.late_sweeps", exact(float64(m.LateSweeps)))
	rep.put("server.completed", exact(float64(m.Completed)))
	rep.put("server.evicted", exact(float64(m.Evicted)))
	rep.put("fault.faulty_rounds", exact(float64(m.FaultyRounds)))
	rep.put("fault.retries", exact(float64(m.Retries)))
	rep.put("fault.lost", exact(float64(m.Lost)))
	rep.put("cluster.migrated", exact(float64(m.Migrated)))
	rep.put("cluster.migration_failed", exact(float64(m.MigrationFailed)))
	rep.put("cluster.failed_over", exact(float64(m.FailedOver)))
	attempts := 0.0
	if inst.coord != nil {
		attempts = float64(inst.coord.MigrationStats().Attempted)
	}
	rep.put("cluster.migrate_attempts", exact(attempts))

	js := inst.jnl.Stats()
	rep.put("journal.appended", exact(float64(js.HeadSeq)))
	rep.put("journal.overwritten", exact(float64(js.Dropped)))
	var spans, freezes, transitions int64
	for _, srv := range inst.servers {
		ts := srv.Trace().Stats()
		spans += ts.Recorded
		freezes += ts.Triggers
		for _, t := range srv.SLOStatus().Targets {
			transitions += t.FiredTotal + t.ResolvedTotal
		}
	}
	rep.put("trace.spans", exact(float64(spans)))
	rep.put("trace.freezes", exact(float64(freezes)))
	rep.put("slo.transitions", exact(float64(transitions)))
}

// putSpans reduces the traced run's spans to per-layer times: per segment
// first, then the median across segments.
func (rep *workloadReport) putSpans(in *inputs, rec *spanRec, res *runResult) {
	segs := in.segments
	rep.put("server.step_allocs", segSummary(res.segs, func(s *segment) float64 { return float64(s.mallocs) / float64(s.rounds) }))
	rep.put("server.step_bytes", segSummary(res.segs, func(s *segment) float64 { return float64(s.bytes) / float64(s.rounds) }))
	rep.put("history.sample_ns", summarize(chunkMeans(durations(rec, spanHistorySample), segs)))
	if !in.spec.cluster() {
		rep.put("server.step_ns", summarize(chunkMeans(durations(rec, spanServerStep), segs)))
		rep.put("server.step_p99_ns", summarize(chunkP99(durations(rec, spanServerStep), segs)))
		rep.put("server.open_ns", summarize(chunkMeans(durations(rec, spanServerOpen), segs)))
		for _, name := range []string{"cluster.open_ns", "cluster.step_ns", "cluster.shard_step_sum_ns", "cluster.step_self_ns", "cluster.parallelism"} {
			rep.put(name, exact(0))
		}
		return
	}
	rep.put("server.step_ns", perShard(rec, spanShardStep, segs, chunkMeans))
	rep.put("server.step_p99_ns", perShard(rec, spanShardStep, segs, chunkP99))
	rep.put("server.open_ns", perShard(rec, spanShardOpen, segs, chunkMeans))
	rep.put("cluster.open_ns", summarize(chunkMeans(durations(rec, spanClusterOpen), segs)))

	sh := clusterShape(rec)
	self := make([]int64, len(sh.span))
	for i := range self {
		self[i] = sh.span[i] - sh.union[i]
		if self[i] < 0 {
			rep.fail("cluster.step span %d: children cover %d ns of a %d ns span", i, sh.union[i], sh.span[i])
		}
	}
	spanMeans, sumMeans := chunkMeans(sh.span, segs), chunkMeans(sh.childSum, segs)
	rep.put("cluster.step_ns", summarize(spanMeans))
	rep.put("cluster.shard_step_sum_ns", summarize(sumMeans))
	rep.put("cluster.step_self_ns", summarize(chunkMeans(self, segs)))
	par := make([]float64, len(spanMeans))
	for i := range par {
		par[i] = sumMeans[i] / spanMeans[i]
	}
	rep.put("cluster.parallelism", summarize(par))
}

// putLadder records the Step cost ladder (zeros off steady-1x4) and checks
// it against the baseline's digest over their common rounds.
func (rep *workloadReport) putLadder(lad *ladderResult, base *runResult) {
	if lad == nil {
		for _, rung := range ladderRungs {
			rep.put(rung.metric, exact(0))
		}
		rep.put("ladder.residual_pct", exact(0))
		return
	}
	rep.absorb(lad.tally)
	if base.digestAtMark != 0 && base.digestAtMark != lad.digest {
		rep.fail("ladder digest %016x differs from the untraced run's first %d rounds %016x", lad.digest, lad.rounds, base.digestAtMark)
	}
	for i, rung := range ladderRungs {
		s := lad.stepNs[i]
		if i > 0 {
			// A delta's spread is the wider of the two rungs it separates.
			prev := lad.stepNs[i-1]
			noise := math.Max(s.Q3-s.Q1, prev.Q3-prev.Q1)
			d := s.Median - prev.Median
			s = summary{Median: d, Q1: d - noise/2, Q3: d + noise/2, N: s.N}
		}
		rep.put(rung.metric, s)
	}
	top := lad.stepNs[len(lad.stepNs)-1].Median
	traced := rep.Metrics["server.step_ns"].Value + rep.Metrics["history.sample_ns"].Value
	rep.put("ladder.residual_pct", exact(100*(top-traced)/top))
}
