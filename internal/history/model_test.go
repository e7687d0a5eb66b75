package history

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"mzqos/internal/telemetry"
)

// The reference the store is held to: every series keeps its own plain
// slices of points and blocks, appended to and trimmed from the front — no
// cohorts, no cursors, no tiles — and every read is recomputed from them
// the long way.

type refPoint struct {
	round  int64
	v      float64
	counts []int64 // cumulative bucket counts, nil for a scalar series
}

type refBlock struct {
	start          int64
	min, max, last float64
}

type refSeries struct {
	id, name string
	read     func() float64
	h        *telemetry.Histogram
	bounds   []float64
	fine     []refPoint
	coarse   []refBlock
	ws       []refWindow // what windows returned last, reused by the next call
}

func (m *refSeries) sample(r, block int64, rounds, blocks int) {
	p := refPoint{round: r, v: m.read()}
	if m.h != nil {
		p.counts = m.h.SnapshotValues().Counts
	}
	if m.fine = append(m.fine, p); len(m.fine) > rounds {
		m.fine = m.fine[1:]
	}
	start := r - r%block
	if n := len(m.coarse); n > 0 && m.coarse[n-1].start == start {
		b := &m.coarse[n-1]
		b.min, b.max, b.last = lower(b.min, p.v), upper(b.max, p.v), p.v
		return
	}
	if m.coarse = append(m.coarse, refBlock{start, p.v, p.v, p.v}); len(m.coarse) > blocks {
		m.coarse = m.coarse[1:]
	}
}

// lower and upper widen an envelope by one value: the value replaces the
// bound it is strictly beyond, so one that compares with nothing (NaN)
// replaces nothing, a bound that is NaN stays, and -0 does not displace 0.
// math.Min and math.Max answer all three differently.
func lower(bound, v float64) float64 {
	if v < bound {
		return v
	}
	return bound
}

func upper(bound, v float64) float64 {
	if v > bound {
		return v
	}
	return bound
}

// refWindow is one step window: its last sample, its envelope, and whether
// only coarse blocks fed it.
type refWindow struct {
	round          int64
	last, min, max float64
	counts         []int64
	coarse         bool
}

// windows coalesces the retained samples at or after since into step
// windows, in one pass, into the slice the previous call returned: coarse blocks wholly older than the fine retention
// first, each at its last round, then the fine points. withCoarse false
// leaves the blocks out (tail trajectories are fine-only).
func (m *refSeries) windows(since, step, block int64, withCoarse bool) []refWindow {
	n := len(m.fine)
	if withCoarse {
		n += len(m.coarse)
	}
	if n > 0 {
		first := m.fine[0].round
		if withCoarse && len(m.coarse) > 0 {
			first = min(first, m.coarse[0].start)
		}
		n = int(min(int64(n), (m.fine[len(m.fine)-1].round-first)/step+2))
	}
	out := slices.Grow(m.ws[:0], n)
	defer func() { m.ws = out }()
	add := func(w refWindow) {
		if n := len(out); n > 0 && out[n-1].round/step == w.round/step {
			o := &out[n-1]
			o.round, o.last, o.counts = w.round, w.last, w.counts
			o.min, o.max = lower(o.min, w.min), upper(o.max, w.max)
			o.coarse = o.coarse && w.coarse
			return
		}
		out = append(out, w)
	}
	if withCoarse {
		fineStart := int64(math.MaxInt64)
		if len(m.fine) > 0 {
			fineStart = m.fine[0].round
		}
		for _, b := range m.coarse {
			if end := b.start + block - 1; end >= since && end < fineStart {
				add(refWindow{end, b.last, b.min, b.max, nil, true})
			}
		}
	}
	for _, p := range m.fine {
		if p.round >= since {
			add(refWindow{p.round, p.v, p.v, p.v, p.counts, false})
		}
	}
	return out
}

// deltas returns the per-bucket growth between two snapshots and its sum.
func deltas(prev, cur []int64) ([]int64, int64) {
	d := make([]int64, len(cur))
	var total int64
	for i := range cur {
		d[i] = max(cur[i]-prev[i], 0)
		total += d[i]
	}
	return d, total
}

func (m *refSeries) query(since, step int64, agg string, block int64) (pts []Point, coarse int) {
	ws := m.windows(since, step, block, true)
	pts = make([]Point, 0, len(ws))
	for i, w := range ws {
		var v float64
		switch agg {
		case AggLast:
			v = w.last
		case AggMin:
			v = w.min
		case AggMax:
			v = w.max
		case AggRate:
			if i == 0 || w.round <= ws[i-1].round {
				continue
			}
			v = (w.last - ws[i-1].last) / float64(w.round-ws[i-1].round)
		case AggP99:
			if i == 0 || w.counts == nil || ws[i-1].counts == nil {
				continue
			}
			d, total := deltas(ws[i-1].counts, w.counts)
			if total == 0 {
				continue
			}
			// The bound of the bucket holding the ⌈q·total⌉-th
			// observation; the overflow bucket reports the last bound.
			target, cum, at := int64(math.Ceil(0.99*float64(total))), int64(0), len(m.bounds)-1
			for j := range d {
				if cum += d[j]; cum >= target {
					at = min(j, at)
					break
				}
			}
			pts = append(pts, Point{Round: w.round, Value: m.bounds[at]})
			continue
		}
		pts = append(pts, Point{Round: w.round, Value: v})
		if w.coarse {
			coarse++
		}
	}
	return pts, coarse
}

func (m *refSeries) tail(threshold float64, since, step int64) []Point {
	ws := m.windows(since, step, 1, false)
	if m.h == nil || len(ws) < 2 {
		return nil
	}
	pts := []Point{}
	for i := 1; i < len(ws); i++ {
		d, total := deltas(ws[i-1].counts, ws[i].counts)
		if total == 0 {
			continue
		}
		above := total
		for j, b := range m.bounds {
			if b <= threshold {
				above -= d[j]
			}
		}
		pts = append(pts, Point{Round: ws[i].round, Value: float64(above) / float64(total)})
	}
	return pts
}

// modelRun drives a Store and the reference side by side.
type modelRun struct {
	t       *testing.T
	rng     *rand.Rand
	cfg     Config
	reg     *telemetry.Registry
	st      *Store
	series  []*refSeries
	bump    []func() // one random mutation of a registered metric each
	resting []*sleeper
	last    int64 // newest sampled round, -1 before any
	slots   int   // samples taken, each into a new fine slot
	round   int64 // the schedule's cursor
}

// sleeper is a gauge that holds the value it was registered with until its
// first move is due, if it ever is.
type sleeper struct {
	g *telemetry.Gauge
	// due reports whether the first move happens before the sample about
	// to be taken. nil for a gauge that never moves.
	due func() bool
	// first is the value of the first move; a gauge that keeps moving
	// joins the random bumps after it, one that does not stays there.
	first       float64
	keepsMoving bool
}

// The kinds of series the model registers. histRoundTime is the shape the
// servers feed — telemetry.RoundTimeBuckets, 30 buckets and the overflow's
// neighbours all reachable — and the one whose bumps are bulk folds.
const (
	kindGauge = iota
	kindCounter
	histSmall
	histRoundTime
	kindBits
	numKinds
)

// boundary is the fine-ring slot spacing the schedule aims first moves at:
// the store seals its fine values in chunks of that many slots, so a slot
// index that is a multiple of it opens a chunk.
const boundary = 64

// register adds one series of the given kind to the registry and the
// reference. Registered after New, it joins the store in a later cohort —
// and a histogram registered that late already holds counts when its cohort
// attaches.
func (m *modelRun) register(kind int) {
	id := fmt.Sprintf("s%d", len(m.series))
	rs := &refSeries{id: id, name: id}
	var h *telemetry.Histogram
	var bump func()
	switch kind {
	case kindGauge:
		g := m.reg.Gauge(id, "")
		rs.read = g.Value
		bump = func() { g.Set(float64(m.rng.IntN(200) - 100)) }
	case kindCounter:
		c := m.reg.Counter(id, "")
		rs.read = func() float64 { return float64(c.Value()) }
		bump = func() { c.Add(int64(m.rng.IntN(5))) }
	case kindBits:
		// Values whose bits share nothing with the one before: any 64 bits
		// (NaN payloads among them), signed zeros, infinities, subnormals.
		g := m.reg.Gauge(id, "")
		rs.read = g.Value
		bump = func() { g.Set(m.anyBits()) }
	case histSmall:
		h = m.histogram(id, []float64{1, 2, 4, 8})
		bump = func() { h.Observe(m.rng.Float64() * 12) }
	case histRoundTime:
		bounds, err := telemetry.RoundTimeBuckets(1)
		if err != nil {
			m.t.Fatal(err)
		}
		h = m.histogram(id, bounds)
		// One observation anywhere from below the first bound to past the
		// last; the same in bulk, small and wider than 32 bits; and a burst
		// that moves every bucket between two samples.
		draw := func() float64 { return math.Exp2(m.rng.Float64()*9 - 5) }
		bump = func() {
			switch p := m.rng.IntN(10); {
			case p < 5:
				h.Observe(draw())
			case p < 7:
				h.ObserveN(draw(), 7)
			case p < 8:
				h.ObserveN(draw(), 1<<33)
			default:
				for _, b := range bounds {
					h.Observe(b)
				}
				h.Observe(2 * bounds[len(bounds)-1])
			}
		}
	}
	if h != nil {
		rs.h, rs.bounds = h, h.Bounds()
		rs.read = func() float64 { return float64(h.Count()) }
		if m.st != nil {
			for k := 1 + m.rng.IntN(3); k > 0; k-- {
				bump()
			}
		}
	}
	m.bump = append(m.bump, bump)
	m.series = append(m.series, rs)
}

// rest registers a gauge that sits at init — through both ring wraps if its
// first move comes that late, or for the whole run.
func (m *modelRun) rest(init float64, sl sleeper) {
	id := fmt.Sprintf("s%d", len(m.series))
	sl.g = m.reg.Gauge(id, "")
	if math.Float64bits(init) != 0 {
		sl.g.Set(init)
	}
	m.series = append(m.series, &refSeries{id: id, name: id, read: sl.g.Value})
	if sl.due != nil {
		m.resting = append(m.resting, &sl)
	}
}

// The first moves the model draws. Each is counted from now, so a series
// registered late rests as long as one registered before New.

// afterSlots is due once the fine ring has taken at least lo and fewer than
// lo+spread more slots.
func (m *modelRun) afterSlots(lo, spread int) func() bool {
	at := m.slots + lo + m.rng.IntN(spread)
	return func() bool { return m.slots >= at }
}

// pastFineWrap is due after every fine slot retained now has been
// overwritten.
func (m *modelRun) pastFineWrap() func() bool {
	return m.afterSlots(m.cfg.Rounds+1, m.cfg.Rounds)
}

// pastCoarseWrap is due past the fine wrap and after the schedule has moved
// on by more rounds than the coarse ring covers.
func (m *modelRun) pastCoarseWrap() func() bool {
	span := int64(m.cfg.CoarseBlock * m.cfg.CoarseBlocks)
	at, fine := m.round+span+1+m.rng.Int64N(span), m.pastFineWrap()
	return func() bool { return m.round >= at && fine() }
}

// inCoarseBlocks is due once the series attached by New retain at least lo
// and fewer than lo+spread coarse blocks: a first move with that many
// coarse chunks sealed, which the wake seals the rested value into.
func (m *modelRun) inCoarseBlocks(lo, spread int) func() bool {
	at := lo + m.rng.IntN(spread)
	return func() bool { return len(m.series[0].coarse) >= at }
}

// atBoundary is due, once the fine ring has taken at least lo more slots,
// in the sample that opens a chunk: the one whose fine slot is a chunk's
// first.
func (m *modelRun) atBoundary(lo int) func() bool {
	at := m.slots + lo
	return func() bool { return m.slots >= at && m.slots%m.cfg.Rounds%boundary == 0 }
}

// stir makes the first move of every resting gauge that is due and reports
// whether there was one.
func (m *modelRun) stir() (moved bool) {
	still := m.resting[:0]
	for _, sl := range m.resting {
		if !sl.due() {
			still = append(still, sl)
			continue
		}
		moved = true
		sl.g.Set(sl.first)
		if g := sl.g; sl.keepsMoving {
			m.bump = append(m.bump, func() { g.Set(float64(m.rng.IntN(200) - 100)) })
		}
	}
	m.resting = still
	return moved
}

// anyBits draws a float64 that an XOR against its neighbours cannot
// predict.
func (m *modelRun) anyBits() float64 {
	switch m.rng.IntN(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1 - 2*m.rng.IntN(2))
	case 3:
		return math.Float64frombits(0x7ff0000000000001 | m.rng.Uint64()&0x800fffffffffffff) // a NaN with a payload
	case 4:
		return math.Float64frombits(m.rng.Uint64() & 0x800fffffffffffff) // subnormal
	}
	return math.Float64frombits(m.rng.Uint64())
}

func (m *modelRun) histogram(id string, bounds []float64) *telemetry.Histogram {
	h, err := m.reg.Histogram(id, "", bounds)
	if err != nil {
		m.t.Fatal(err)
	}
	return h
}

func (m *modelRun) sample() {
	m.st.Sample(int(m.round))
	for _, rs := range m.series {
		rs.sample(m.round, int64(m.cfg.CoarseBlock), m.cfg.Rounds, m.cfg.CoarseBlocks)
	}
	m.slots++
	m.last = m.round
}

// samePoints compares two trajectories value bits for value bits: a series
// resting at NaN equals itself, and -0 is not 0.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// check compares everything a reader can get out of the store with the
// reference.
func (m *modelRun) check(when string) {
	m.t.Helper()
	block := int64(m.cfg.CoarseBlock)
	for _, rs := range m.series {
		for _, agg := range []string{AggLast, AggMin, AggMax, AggRate, AggP99} {
			if agg == AggP99 && rs.h == nil {
				continue
			}
			for _, step := range []int{1, 3, 10} {
				for _, since := range []int64{0, m.last - int64(m.cfg.Rounds)/2, m.last - 3*int64(m.cfg.Rounds)} {
					res, err := m.st.Query(Query{Series: rs.name, Agg: agg, Step: step, SinceRound: since})
					if err != nil {
						m.t.Fatalf("%s: Query(%s %s step %d since %d): %v", when, rs.id, agg, step, since, err)
					}
					want, wantCoarse := rs.query(since, int64(step), agg, block)
					if got := res.Series[0]; !samePoints(got.Points, want) || got.CoarsePoints != wantCoarse || res.LastRound != m.last {
						m.t.Fatalf("%s: Query(%s %s step %d since %d)\n got %v (%d coarse, last round %d)\nwant %v (%d coarse, last round %d)",
							when, rs.id, agg, step, since, got.Points, got.CoarsePoints, res.LastRound, want, wantCoarse, m.last)
					}
				}
			}
		}
		for _, step := range []int{1, 4} {
			got := m.st.TailTrajectory(rs.id, 2, m.last-int64(m.cfg.Rounds)/2, step)
			if want := rs.tail(2, m.last-int64(m.cfg.Rounds)/2, int64(step)); !reflect.DeepEqual(got, want) {
				m.t.Fatalf("%s: TailTrajectory(%s step %d)\n got %v\nwant %v", when, rs.id, step, got, want)
			}
		}
	}
	for _, maxPoints := range []int{0, 7} {
		d := m.st.Dump(maxPoints)
		if maxPoints == 0 {
			maxPoints = 256
		}
		step := int64(1)
		if m.last >= int64(maxPoints) {
			step = (m.last + int64(maxPoints)) / int64(maxPoints)
		}
		if len(d.Series) != len(m.series) || int64(d.Step) != step {
			m.t.Fatalf("%s: Dump(%d) has %d series at step %d, want %d at step %d", when, maxPoints, len(d.Series), d.Step, len(m.series), step)
		}
		for i, rs := range m.series {
			want, wantCoarse := rs.query(0, step, AggLast, block)
			if got := d.Series[i]; got.ID != rs.id || !samePoints(got.Points, want) || got.CoarsePoints != wantCoarse {
				m.t.Fatalf("%s: Dump(%d) series %d\n got %s %v (%d coarse)\nwant %s %v (%d coarse)",
					when, maxPoints, i, got.ID, got.Points, got.CoarsePoints, rs.id, want, wantCoarse)
			}
		}
	}
}

// idle registers one series of the given kind that nothing moves after
// registration: its scalar column rests for the whole run.
func (m *modelRun) idle(kind int) {
	m.register(kind)
	m.bump = m.bump[:len(m.bump)-1]
}

// newModelRun registers one series of each kind and the gauges that rest —
// for good at 0, NaN, +Inf and -0, or until a first move past the fine
// wrap, past the coarse wrap, in the sample that opens a chunk, or once the
// coarse ring retains about 2ⁱ/2 blocks for each power 2ⁱ of two tiles
// below its retention — builds the store over them (the cohort New
// attaches) and registers five more that join on the first Sample.
func newModelRun(t *testing.T, cfg Config, seed uint64) *modelRun {
	m := &modelRun{t: t, rng: rand.New(rand.NewPCG(seed, uint64(cfg.Rounds))), cfg: cfg, reg: telemetry.NewRegistry(), last: -1}
	for kind := 0; kind < numKinds; kind++ {
		m.register(kind)
	}
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{0, math.NaN(), math.Inf(1), negZero} {
		m.rest(v, sleeper{})
	}
	m.idle(kindCounter)
	m.rest(math.NaN(), sleeper{due: m.pastFineWrap(), first: 3, keepsMoving: true})
	m.rest(math.Inf(1), sleeper{due: m.pastCoarseWrap(), first: -5, keepsMoving: true})
	// A first move that == does not see, and nothing after it to hide a
	// store that missed it.
	m.rest(negZero, sleeper{due: m.afterSlots(1, cfg.Rounds+2), first: 0})
	m.rest(0, sleeper{due: m.afterSlots(1, cfg.Rounds+2), first: negZero})
	// First moves in the sample that opens a chunk, before and after the
	// fine ring wraps.
	m.rest(23, sleeper{due: m.atBoundary(1), first: 29, keepsMoving: true})
	m.rest(37, sleeper{due: m.atBoundary(cfg.Rounds + 1), first: 41, keepsMoving: true})
	// First moves after size/2+4 to size-4 coarse blocks, for size = 2, 4, …
	// tiles below the retention: each with more coarse chunks sealed.
	for size := 2 * tile; size < cfg.CoarseBlocks; size *= 2 {
		m.rest(float64(size), sleeper{due: m.inCoarseBlocks(size/2+4, size/2-8), first: -float64(size), keepsMoving: true})
	}
	m.cfg.Registry = m.reg
	m.st = New(m.cfg)
	for i := 0; i < 3; i++ {
		m.register(m.rng.IntN(numKinds))
	}
	m.idle(histRoundTime) // holds counts when it attaches, observes nothing after
	m.rest(11, sleeper{due: m.pastFineWrap(), first: 12, keepsMoving: true})
	return m
}

// run drives batches of random operations — metrics moving, then Sample
// of the next round or, now and then, of one past a gap — checks every
// read against the reference after each batch and after every sample a
// resting gauge first moved before, and registers late series now and
// then: one that moves, one that rests, one that rests past the fine wrap.
func (m *modelRun) run(batches int) {
	for batch := 0; batch < batches; batch++ {
		for op := m.rng.IntN(2 * m.cfg.Rounds); op >= 0; op-- {
			for k := m.rng.IntN(4); k > 0; k-- {
				m.bump[m.rng.IntN(len(m.bump))]()
			}
			if m.rng.IntN(100) < 5 {
				m.round += int64(2 + m.rng.IntN(20))
			} else {
				m.round++
			}
			woke := m.stir()
			m.sample()
			if woke {
				m.check(fmt.Sprintf("rounds %d batch %d, after a first move", m.cfg.Rounds, batch))
			}
		}
		m.check(fmt.Sprintf("rounds %d batch %d", m.cfg.Rounds, batch))
		if batch%16 == 5 {
			m.register(m.rng.IntN(numKinds))
			m.rest(13, sleeper{})
			m.rest(17, sleeper{due: m.pastFineWrap(), first: 19, keepsMoving: true})
		}
	}
}

// TestStoreMatchesPerSeriesModel runs random schedules — Sample of
// consecutive rounds with gaps, registrations
// that open new cohorts, metrics moving in between, histograms moving one
// observation, one bulk fold or every bucket at a time, gauges set to bits
// that share nothing with the value before (NaN payloads, ±0, ±Inf,
// subnormals), gauges that never move or first move many samples in — at retentions that are not tile
// multiples (and at a retention of one sample) under coarse rings small
// enough to wrap, at one whose coarse ring outlasts the fine ring by many
// batches, so a block written around a first move is read back from the
// coarse tier, and at one whose coarse ring of five chunks, the last
// shorter, fills with first moves at three fill levels,
// and at retentions of one whole 64-slot chunk and of several ending on a
// partial one, with first moves on the chunk boundaries;
// and checks every read against the reference after every batch.
func TestStoreMatchesPerSeriesModel(t *testing.T) {
	for _, c := range []struct {
		Config
		seeds uint64
	}{
		{Config{Rounds: 1, CoarseBlock: 2, CoarseBlocks: 3}, 3},
		{Config{Rounds: 5, CoarseBlock: 2, CoarseBlocks: 4}, 3},
		{Config{Rounds: 7, CoarseBlock: 3, CoarseBlocks: 64}, 3},
		{Config{Rounds: 13, CoarseBlock: 4, CoarseBlocks: 6}, 3},
		{Config{Rounds: 100, CoarseBlock: 8, CoarseBlocks: 16}, 3},
		{Config{Rounds: 9, CoarseBlock: 2, CoarseBlocks: 70}, 3},
		{Config{Rounds: 150, CoarseBlock: 8, CoarseBlocks: 16}, 2},
		{Config{Rounds: 64, CoarseBlock: 4, CoarseBlocks: 8}, 2},
	} {
		for seed := uint64(1); seed <= c.seeds; seed++ {
			t.Run(fmt.Sprintf("rounds %d seed %d", c.Rounds, seed), func(t *testing.T) {
				m := newModelRun(t, c.Config, seed)
				m.run(48)
				if n := len(m.resting); n > 0 {
					t.Fatalf("%d first moves were never due: the schedule is too short for the cases it draws", n)
				}
			})
		}
	}
}

// TestReadsNeverWrite: the round loop is the store's one writer. One
// goroutine runs it — the gauge set to the round and the round-time
// histogram observed, then Sample — while a second runs every read path
// beside it: the registry's Snapshot and exposition, /query, /dashboard,
// Dump and TailTrajectory. Every 100 rounds the loop waits, between setting
// the gauge and sampling, for a whole pass of reads to run: the moment a
// scrape that wrote would store the next round's value under the newest
// round. Every retained point of the gauge must then be
// its own round's value, the rounds strictly increasing, and the store must
// have absorbed exactly the loop's samples.
func TestReadsNeverWrite(t *testing.T) {
	const rounds = 3000
	st, reg := testStore(t, rounds, 64, 8)
	g := reg.Gauge("g", "")
	rt, err := reg.Histogram(seriesRoundTime, "", []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	query, dash := st.QueryHandler(), st.DashboardHandler(DashboardConfig{})
	get := func(h http.HandlerFunc, url string) {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s: status %d", url, rec.Code)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var reads atomic.Int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Snapshot()
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			get(query, "/query?series=g&step=64")
			get(dash, "/dashboard")
			st.Dump(64)
			st.TailTrajectory(seriesRoundTime, 1, 0, 1)
			reads.Add(1)
		}
	}()
	for r := 0; r < rounds; r++ {
		g.Set(float64(r))
		if r%100 == 50 {
			// The pass under way may have read before the Set; the next
			// one reads after it.
			for n := reads.Load(); reads.Load() < n+2; {
				runtime.Gosched()
			}
		}
		rt.Observe(float64(r%5) / 2)
		st.Sample(r)
	}
	close(stop)
	<-done
	pts := points(t, st, Query{Series: "g"})
	if len(pts) != rounds {
		t.Fatalf("%d points retained, want one per round (%d)", len(pts), rounds)
	}
	for i, p := range pts {
		if p.Value != float64(p.Round) || (i > 0 && p.Round <= pts[i-1].Round) {
			t.Fatalf("point %d is round %d, value %v, after round %d: a read wrote to the store", i, p.Round, p.Value, pts[max(i-1, 0)].Round)
		}
	}
	if n := st.Samples(); n != rounds {
		t.Fatalf("Samples = %d, want the round loop's %d", n, rounds)
	}
}
