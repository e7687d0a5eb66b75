package main

import (
	"errors"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"mzqos/internal/cluster"
	"mzqos/internal/engine"
	"mzqos/internal/history"
	"mzqos/internal/server"
)

// roundStats is what one round's report says happened, summed over disks
// (and shards). The driver folds it into totals, the digest and the
// per-round invariants.
type roundStats struct {
	requests, late, lost, retries, glitches int
	lateSweeps, faultyDisks                 int
	completed, evicted                      int
	migrated, migrationFailed, failedOver   int
}

func (rs *roundStats) addDisks(disks []engine.DiskRoundReport) {
	for i := range disks {
		d := &disks[i]
		rs.requests += d.Requests
		rs.late += d.Late
		rs.lost += d.Lost
		rs.retries += d.Retries
		if d.Late > 0 || d.Down {
			rs.lateSweeps++
		}
		if d.Faulty {
			rs.faultyDisks++
		}
	}
}

// target is the system under test as the round loop sees it: mzserver's
// loop body is exactly "Open each arrival, then Step".
type target interface {
	open(name string) error
	step(rs *roundStats)
}

type serverTarget struct{ srv *server.Server }

func (t serverTarget) open(name string) error {
	_, _, err := t.srv.Open(name)
	return err
}

func (t serverTarget) step(rs *roundStats) {
	rep := t.srv.Step()
	*rs = roundStats{glitches: rep.Glitches, completed: len(rep.Completed), evicted: len(rep.Evicted)}
	rs.addDisks(rep.Disks)
}

type clusterTarget struct{ coord *cluster.Coordinator }

func (t clusterTarget) open(name string) error {
	_, _, err := t.coord.Open(name)
	return err
}

func (t clusterTarget) step(rs *roundStats) {
	rep := t.coord.Step()
	*rs = roundStats{
		glitches: rep.Glitches, completed: rep.Completed, evicted: rep.Evicted,
		migrated: rep.Migrated, migrationFailed: rep.MigrationFailed, failedOver: rep.FailedOver,
	}
	for i := range rep.Shards {
		rs.addDisks(rep.Shards[i].Report.Disks)
	}
}

// tracedTarget records a span around each call the loop makes into a
// layer's public API. The traced build leaves the history store out of the
// engine configs, so Sample is called (and timed) here, right after Step
// and with the round number the engine itself would have passed.
type tracedTarget struct {
	inner              target
	rec                *spanRec
	openKind, stepKind uint8
	// hist is sampled after every Step when the build left it to the
	// driver; histRound returns the round to sample at.
	hist      *history.Store
	histRound func() int
}

func (t *tracedTarget) open(name string) error {
	s := t.rec.now()
	err := t.inner.open(name)
	t.rec.add(t.openKind, -1, s)
	return err
}

func (t *tracedTarget) step(rs *roundStats) {
	s := t.rec.now()
	t.inner.step(rs)
	t.rec.add(t.stepKind, -1, s)
	if t.hist != nil {
		s = t.rec.now()
		t.hist.Sample(t.histRound())
		t.rec.add(spanHistorySample, -1, s)
	}
}

// newTarget returns the loop's view of inst, traced when rec is set.
func newTarget(inst *instance, rec *spanRec) target {
	var tg target
	tt := &tracedTarget{rec: rec}
	if inst.histOutside {
		tt.hist = inst.hist
	}
	if inst.coord != nil {
		tg = clusterTarget{inst.coord}
		tt.openKind, tt.stepKind = spanClusterOpen, spanClusterStep
		// Coordinator.Step samples at its round counter after the increment.
		tt.histRound = inst.coord.Round
	} else {
		srv := inst.servers[0]
		tg = serverTarget{srv}
		tt.openKind, tt.stepKind = spanServerOpen, spanServerStep
		// Server.Step samples at the round it just executed.
		tt.histRound = func() int { return srv.Round() - 1 }
	}
	if rec == nil {
		return tg
	}
	tt.inner = tg
	return tt
}

// simTotals are the simulated statistics of a phase: exact for a seed.
type simTotals struct {
	Rounds          int `json:"rounds"`
	Requests        int `json:"requests"`
	Late            int `json:"late"`
	Lost            int `json:"lost"`
	Retries         int `json:"retries"`
	Glitches        int `json:"glitches"`
	LateSweeps      int `json:"late_sweeps"`
	FaultyRounds    int `json:"faulty_rounds"`
	Completed       int `json:"completed"`
	Evicted         int `json:"evicted"`
	Migrated        int `json:"migrated"`
	MigrationFailed int `json:"migration_failed"`
	FailedOver      int `json:"failed_over"`
	OpenCalls       int `json:"open_calls"`
	OpenRejected    int `json:"open_rejected"`
}

func (t *simTotals) add(rs *roundStats) {
	t.Rounds++
	t.Requests += rs.requests
	t.Late += rs.late
	t.Lost += rs.lost
	t.Retries += rs.retries
	t.Glitches += rs.glitches
	t.LateSweeps += rs.lateSweeps
	if rs.faultyDisks > 0 {
		t.FaultyRounds++
	}
	t.Completed += rs.completed
	t.Evicted += rs.evicted
	t.Migrated += rs.migrated
	t.MigrationFailed += rs.migrationFailed
	t.FailedOver += rs.failedOver
}

func (t *simTotals) admitted() int { return t.OpenCalls - t.OpenRejected }

// segment is the host-time record of one equal-round slice of the measured
// phase. Every host-time metric is computed per segment first.
type segment struct {
	rounds, requests, opens int
	roundNs, openNs         int64 // summed over the segment's rounds
	p50Ns, p99Ns            float64
	mallocs, bytes          uint64 // heap allocation during the segment
}

// runResult is everything one drive of one instance produced.
type runResult struct {
	segs     []segment
	measured simTotals // measured phase only
	life     simTotals // warm-up included, for the exit invariants
	// digest hashes every measured round's report; digestAtMark is its
	// value after the first digestMark measured rounds (0 = not taken).
	digest, digestAtMark uint64

	// tally counts fragments due and Open calls of the measured phase as
	// attempted, failed invariants and unexpected Open errors as failed.
	tally

	wall       time.Duration // measured phase, bookkeeping included
	gcCycles   uint32
	gcPauseNs  uint64
	allocBytes uint64
	scrape     scrapeResult // zero when the workload has no reader
}

// runner drives one instance through its inputs from the calling goroutine:
// a closed loop, as the engine contract requires. It runs in slices — the
// warm-up, then one segment at a time — so that several runners (the rungs
// of the cost ladder) can take turns and share whatever the host is doing.
type runner struct {
	in   *inputs
	inst *instance
	tg   target
	rec  *spanRec // nil for an untraced run
	res  *runResult
	// digestMark asks for the running digest after that many measured
	// rounds, so runs of different length compare over a common prefix.
	digestMark int

	next      int // next engine round to execute
	segRounds int
	samples   []int64 // the current segment's round times
	digest    hash.Hash64
	planned   bool
	base      time.Time
	rs        roundStats

	mem, memStart runtime.MemStats
	scr           *scraper
	measureStart  time.Time
}

func newRunner(in *inputs, inst *instance, rec *spanRec, digestMark int) *runner {
	r := &runner{
		in: in, inst: inst, tg: newTarget(inst, rec), rec: rec, digestMark: digestMark,
		res:       &runResult{segs: make([]segment, in.segments)},
		segRounds: in.rounds / in.segments,
		digest:    fnv.New64a(),
		planned:   !in.spec.healthy(),
		base:      time.Now(),
	}
	r.samples = make([]int64, r.segRounds)
	if rec != nil {
		r.base = rec.base // one clock for the loop's timestamps and the spans
	}
	return r
}

// drive runs the warm-up and every segment back to back.
func drive(in *inputs, inst *instance, rec *spanRec, digestMark int) *runResult {
	r := newRunner(in, inst, rec, digestMark)
	r.warmUp()
	for i := 0; i < in.segments; i++ {
		r.segment()
	}
	return r.finish()
}

// warmUp runs the unmeasured rounds — enough to wrap the history fine ring,
// the trace ring and the journal ring — and opens the measured phase from a
// collected heap.
func (r *runner) warmUp() {
	r.rounds(r.in.warmup)
	runtime.GC()
	runtime.ReadMemStats(&r.memStart)
	r.mem = r.memStart
	if r.rec != nil {
		r.rec.reset(3*r.in.rounds + len(r.in.arrClip) + 1024)
	}
	if r.in.spec.Scrape {
		r.scr = startScraper(r.inst)
	}
	r.measureStart = time.Now()
}

// segment runs the next equal-round slice of the measured phase and closes
// its host-time record.
func (r *runner) segment() {
	seg := &r.res.segs[(r.next-r.in.warmup)/r.segRounds]
	r.rounds(r.segRounds)
	sorted := sortedCopyNs(r.samples)
	seg.p50Ns = percentile(sorted, 0.50)
	seg.p99Ns = percentile(sorted, 0.99)
	prev := r.mem
	runtime.ReadMemStats(&r.mem)
	seg.mallocs = r.mem.Mallocs - prev.Mallocs
	seg.bytes = r.mem.TotalAlloc - prev.TotalAlloc
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// rounds executes the next n rounds: per round the arrivals' Opens, then
// Step, timed as one; then the bookkeeping, outside the timed interval.
func (r *runner) rounds(n int) {
	in, res, tg, rs := r.in, r.res, r.tg, &r.rs
	var word [8 * 8]byte
	for end := r.next + n; r.next < end; r.next++ {
		round := r.next
		m := round - in.warmup // measured round index, negative during warm-up
		arr := in.arrivals(round)
		if r.rec != nil {
			*r.rec.round = int32(round)
		}

		t0 := r.now()
		rejected := 0
		for _, c := range arr {
			if err := tg.open(in.names[c]); err != nil {
				if !errors.Is(err, engine.ErrRejected) {
					res.fail("round %d: Open(%s): %v", round, in.names[c], err)
				}
				rejected++
			}
		}
		t1 := r.now()
		tg.step(rs)
		t2 := r.now()

		res.life.add(rs)
		res.life.OpenCalls += len(arr)
		res.life.OpenRejected += rejected
		if rs.late+rs.lost != rs.glitches {
			res.fail("round %d: late %d + lost %d != glitches %d", round, rs.late, rs.lost, rs.glitches)
		}
		if !r.planned && rs.lost != 0 {
			res.fail("round %d: %d fragments lost with no fault plan", round, rs.lost)
		}
		if m < 0 {
			continue
		}

		if r.rec != nil {
			r.rec.buf = append(r.rec.buf, span{start: t0, dur: t2 - t0, round: int32(round), kind: spanRound, shard: -1})
		}
		res.measured.add(rs)
		res.measured.OpenCalls += len(arr)
		res.measured.OpenRejected += rejected
		for i, v := range [...]int{rs.requests, rs.late, rs.lost, rs.completed, rs.evicted, rs.migrated, rs.failedOver, len(arr) - rejected} {
			putUint64(word[8*i:], uint64(v))
		}
		r.digest.Write(word[:])
		if m+1 == r.digestMark {
			res.digestAtMark = r.digest.Sum64()
		}

		seg := &res.segs[m/r.segRounds]
		r.samples[m%r.segRounds] = t2 - t0
		seg.rounds++
		seg.requests += rs.requests
		seg.roundNs += t2 - t0
		if len(arr) > 0 {
			seg.opens += len(arr)
			seg.openNs += t1 - t0
		}
	}
}

// finish stops the reader, closes the books and applies the exit checks.
func (r *runner) finish() *runResult {
	res := r.res
	res.wall = time.Since(r.measureStart)
	if r.scr != nil {
		res.scrape = r.scr.stop()
	}
	res.digest = r.digest.Sum64()
	res.gcCycles = r.mem.NumGC - r.memStart.NumGC
	res.gcPauseNs = r.mem.PauseTotalNs - r.memStart.PauseTotalNs
	res.allocBytes = r.mem.TotalAlloc - r.memStart.TotalAlloc
	res.Attempted = res.measured.Requests + res.measured.OpenCalls
	checkExit(r.in, r.inst, res)
	return res
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// minBoundEvents is how many late rounds (or glitches) a bound must allow
// over a run before the run is held to it: in a run so short that the bound
// allows fewer, one late sweep alone reads as a violation.
const minBoundEvents = 10

// outsideBounds reports whether a disk's measured tail or glitch rate
// exceeds its analytic bound on a sample large enough to say so.
func outsideBounds(d engine.DiskTightness) bool {
	late := d.EmpiricalPLate > d.BoundPLate && float64(d.Sweeps)*d.BoundPLate >= minBoundEvents
	glitch := d.EmpiricalGlitchRate > d.BoundGlitch && float64(d.Requests)*d.BoundGlitch >= minBoundEvents
	return late || glitch
}

// boundsChecked reports whether a shard is held to the paper's guarantee at
// exit: every shard that runs without a fault plan, on every workload the
// model's assumptions cover.
func (in *inputs) boundsChecked(shard int) bool {
	return in.plans[shard] == nil && !in.spec.Correlated
}

// checkExit applies the end-of-run invariants: stream conservation, ticket
// agreement, and — on the shards boundsChecked names — the paper's guarantee
// itself, every disk's measured tail within its analytic bound.
func checkExit(in *inputs, inst *instance, res *runResult) {
	l, active := &res.life, inst.active()
	// A failed-over stream leaves its shard without being reported
	// completed or evicted, and every migrated stream arrives again.
	want := l.admitted() - l.Completed - l.Evicted - l.FailedOver + l.Migrated
	if active != want {
		res.fail("exit: %d streams active, want admitted %d - completed %d - evicted %d - failed over %d + migrated %d = %d",
			active, l.admitted(), l.Completed, l.Evicted, l.FailedOver, l.Migrated, want)
	}
	if inst.coord != nil {
		if t := inst.coord.Tickets(); t != active {
			res.fail("exit: coordinator holds %d tickets, shards %d active streams", t, active)
		}
	}
	for i, srv := range inst.servers {
		if !in.boundsChecked(i) {
			continue
		}
		rep, err := srv.BoundTightness()
		if err != nil {
			res.fail("exit: shard %d BoundTightness: %v", i, err)
			continue
		}
		for _, d := range rep.Disks {
			if outsideBounds(d) {
				res.fail("exit: shard %d disk %d outside its bounds: P[late] %.3g > %.3g or glitch rate %.3g > %.3g",
					i, d.Disk, d.EmpiricalPLate, d.BoundPLate, d.EmpiricalGlitchRate, d.BoundGlitch)
			}
		}
	}
}

// heapLiveMB forces a collection and returns the live heap. Callers drop
// the run's inputs first so the figure is the system's, not the driver's.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
