package history

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mzqos/internal/telemetry"
)

func testStore(t *testing.T, rounds, block, blocks int) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	st := New(Config{Registry: reg, Rounds: rounds, CoarseBlock: block, CoarseBlocks: blocks})
	return st, reg
}

func points(t *testing.T, st *Store, q Query) []Point {
	t.Helper()
	res, err := st.Query(q)
	if err != nil {
		t.Fatalf("Query(%+v): %v", q, err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("Query(%+v): got %d series, want 1", q, len(res.Series))
	}
	return res.Series[0].Points
}

func TestSampleAndQueryLast(t *testing.T) {
	st, reg := testStore(t, 16, 4, 8)
	g := reg.Gauge("g", "")
	for r := 0; r < 5; r++ {
		g.Set(float64(r * 10))
		st.Sample(r)
	}
	pts := points(t, st, Query{Series: "g"})
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	for i, p := range pts {
		if p.Round != int64(i) || p.Value != float64(i*10) {
			t.Fatalf("point %d = %+v, want round=%d value=%d", i, p, i, i*10)
		}
	}
	if got := st.LastRound(); got != 4 {
		t.Fatalf("LastRound = %d, want 4", got)
	}
}

func TestFineRingWraps(t *testing.T) {
	st, reg := testStore(t, 8, 4, 4)
	g := reg.Gauge("g", "")
	for r := 0; r < 20; r++ {
		g.Set(float64(r))
		st.Sample(r)
	}
	pts := points(t, st, Query{Series: "g", SinceRound: 12})
	if len(pts) != 8 {
		t.Fatalf("got %d fine points, want 8 (ring capacity)", len(pts))
	}
	if pts[0].Round != 12 || pts[7].Round != 19 {
		t.Fatalf("retained window [%d,%d], want [12,19]", pts[0].Round, pts[7].Round)
	}
}

// TestSampleIgnoresPastRounds: a point is recorded once. A second Sample
// of the newest round and one of a round below it are ignored — the point
// keeps the value it was taken with, and neither counts as a sample.
func TestSampleIgnoresPastRounds(t *testing.T) {
	st, reg := testStore(t, 8, 4, 4)
	g := reg.Gauge("g", "")
	g.Set(1)
	st.Sample(2)
	g.Set(2)
	st.Sample(3)
	g.Set(9)
	st.Sample(3)
	st.Sample(1)
	pts := points(t, st, Query{Series: "g"})
	if len(pts) != 2 || pts[0] != (Point{Round: 2, Value: 1}) || pts[1] != (Point{Round: 3, Value: 2}) {
		t.Fatalf("points %+v, want round 2 at 1 and round 3 at 2", pts)
	}
	if st.Samples() != 2 || st.LastRound() != 3 {
		t.Fatalf("Samples = %d, LastRound = %d; want 2 and 3", st.Samples(), st.LastRound())
	}
}

func TestCoarseFallbackPastFineRetention(t *testing.T) {
	// 8 fine rounds, blocks of 4, plenty of coarse blocks: after 32
	// rounds the fine ring holds [24,31] and older rounds must resolve
	// from the coarse envelope.
	st, reg := testStore(t, 8, 4, 16)
	g := reg.Gauge("g", "")
	for r := 0; r < 32; r++ {
		g.Set(float64(r))
		st.Sample(r)
	}
	res, err := st.Query(Query{Series: "g", Agg: AggMax})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Series[0]
	if sr.CoarsePoints == 0 {
		t.Fatalf("expected coarse points past fine retention, got none: %+v", sr)
	}
	// The first point is a coarse block (rounds 0..3, stamped at its last
	// round, max = 3).
	if sr.Points[0].Round != 3 || sr.Points[0].Value != 3 {
		t.Fatalf("first coarse point = %+v, want round=3 max=3", sr.Points[0])
	}
	// The last point is fine (round 31, value 31).
	last := sr.Points[len(sr.Points)-1]
	if last.Round != 31 || last.Value != 31 {
		t.Fatalf("last point = %+v, want round=31 value=31", last)
	}
	// min agg over the same span: block [0,3] has min 0.
	minPts := points(t, st, Query{Series: "g", Agg: AggMin})
	if minPts[0].Value != 0 {
		t.Fatalf("coarse min = %v, want 0", minPts[0].Value)
	}
}

// TestCoarsePointStampedAtLastRound: a coarse block's point carries the
// value read at the block's last round, so it is stamped there — at its
// start round, agg=last placed a counter's value a block early and agg=rate
// across the coarse→fine boundary divided a block's growth by a block and
// a half. A counter that grows by one a round must read exactly one per
// round at every step, coarse points included, and since_round filters on
// the stamp.
func TestCoarsePointStampedAtLastRound(t *testing.T) {
	st, reg := testStore(t, 64, 8, 64)
	c := reg.Counter("c", "")
	for r := 0; r < 200; r++ {
		c.Add(1)
		st.Sample(r)
	}
	res, err := st.Query(Query{Series: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if sr := res.Series[0]; sr.CoarsePoints == 0 {
		t.Fatalf("no coarse points over 200 rounds at a 64-round fine ring: %+v", sr)
	}
	for _, p := range res.Series[0].Points {
		if p.Value != float64(p.Round+1) {
			t.Fatalf("last at round %d = %v, want %d (the value read at that round)", p.Round, p.Value, p.Round+1)
		}
	}
	for _, step := range []int{1, 8, 16} {
		pts := points(t, st, Query{Series: "c", Agg: AggRate, Step: step})
		if len(pts) == 0 {
			t.Fatalf("step %d: rate produced no points", step)
		}
		for _, p := range pts {
			if p.Value != 1 {
				t.Fatalf("step %d: rate at round %d = %v, want 1", step, p.Round, p.Value)
			}
		}
	}
	if pts := points(t, st, Query{Series: "c", SinceRound: 7}); pts[0].Round != 7 {
		t.Fatalf("since_round 7 starts at round %d, want 7 (block 0's stamp)", pts[0].Round)
	}
	if pts := points(t, st, Query{Series: "c", SinceRound: 8}); pts[0].Round != 15 {
		t.Fatalf("since_round 8 starts at round %d, want 15 (block 1's stamp)", pts[0].Round)
	}
}

func TestStepAggregation(t *testing.T) {
	st, reg := testStore(t, 64, 16, 8)
	g := reg.Gauge("g", "")
	for r := 0; r < 12; r++ {
		g.Set(float64(r % 5))
		st.Sample(r)
	}
	// step=4 windows: [0..3] [4..7] [8..11]
	lastPts := points(t, st, Query{Series: "g", Step: 4, Agg: AggLast})
	if len(lastPts) != 3 {
		t.Fatalf("got %d windows, want 3", len(lastPts))
	}
	if lastPts[0].Round != 3 || lastPts[0].Value != 3 {
		t.Fatalf("window 0 last = %+v, want round=3 value=3", lastPts[0])
	}
	maxPts := points(t, st, Query{Series: "g", Step: 4, Agg: AggMax})
	if maxPts[1].Value != 4 { // rounds 4..7 → values 4,0,1,2
		t.Fatalf("window 1 max = %v, want 4", maxPts[1].Value)
	}
	minPts := points(t, st, Query{Series: "g", Step: 4, Agg: AggMin})
	if minPts[1].Value != 0 {
		t.Fatalf("window 1 min = %v, want 0", minPts[1].Value)
	}
}

func TestRateAggregation(t *testing.T) {
	st, reg := testStore(t, 64, 16, 8)
	c := reg.Counter("c", "")
	for r := 0; r < 10; r++ {
		c.Add(3) // 3 per round
		st.Sample(r)
	}
	pts := points(t, st, Query{Series: "c", Step: 2, Agg: AggRate})
	if len(pts) == 0 {
		t.Fatal("rate produced no points")
	}
	for _, p := range pts {
		if p.Value != 3 {
			t.Fatalf("rate at round %d = %v, want 3", p.Round, p.Value)
		}
	}
}

func TestQuantileOverTime(t *testing.T) {
	st, reg := testStore(t, 64, 16, 8)
	h, err := reg.Histogram("h", "", []float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 0..3: all observations at ~1. Rounds 4..7: at ~4.
	for r := 0; r < 8; r++ {
		v := 1.0
		if r >= 4 {
			v = 4.0
		}
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
		st.Sample(r)
	}
	pts := points(t, st, Query{Series: "h", Step: 4, Agg: AggP99})
	// Windows end at rounds 3 and 7; deltas exist only between them, so
	// one point: the second window's observations are all ≤ 4.
	if len(pts) != 1 {
		t.Fatalf("got %d quantile points, want 1: %+v", len(pts), pts)
	}
	if pts[0].Value != 4 {
		t.Fatalf("p99 over window = %v, want 4", pts[0].Value)
	}
	// p50 with step 1 tracks the per-round level change.
	p50 := points(t, st, Query{Series: "h", Agg: AggP50})
	if len(p50) != 7 { // 8 samples → 7 deltas
		t.Fatalf("got %d p50 points, want 7", len(p50))
	}
	if p50[0].Value != 1 || p50[6].Value != 4 {
		t.Fatalf("p50 trajectory = %v..%v, want 1..4", p50[0].Value, p50[6].Value)
	}
}

func TestQuantileOnScalarRejected(t *testing.T) {
	st, reg := testStore(t, 8, 4, 4)
	reg.Gauge("g", "")
	st.Sample(0)
	if _, err := st.Query(Query{Series: "g", Agg: AggP99}); err == nil {
		t.Fatal("quantile agg on a gauge should fail")
	}
}

func TestUnknownSeriesAndBadAgg(t *testing.T) {
	st, _ := testStore(t, 8, 4, 4)
	if _, err := st.Query(Query{Series: "nope"}); err == nil {
		t.Fatal("unknown series should fail")
	}
	if _, err := st.Query(Query{Series: "nope", Agg: "avg"}); err == nil {
		t.Fatal("unknown agg should fail")
	}
}

func TestSelectorByIDPrefix(t *testing.T) {
	st, reg := testStore(t, 8, 4, 4)
	reg.Gauge("burn", "", telemetry.Label{Key: "target", Value: "late"}, telemetry.Label{Key: "window", Value: "fast"})
	reg.Gauge("burn", "", telemetry.Label{Key: "target", Value: "late"}, telemetry.Label{Key: "window", Value: "slow"})
	reg.Gauge("burn", "", telemetry.Label{Key: "target", Value: "glitch"}, telemetry.Label{Key: "window", Value: "fast"})
	st.Sample(0)
	res, err := st.Query(Query{Series: "burn{target=late}"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("prefix selector matched %d series, want 2", len(res.Series))
	}
	res, err = st.Query(Query{Series: "burn"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("name selector matched %d series, want 3", len(res.Series))
	}
}

func TestLateRegistrationAttaches(t *testing.T) {
	st, reg := testStore(t, 8, 4, 4)
	reg.Gauge("early", "")
	st.Sample(0)
	late := reg.Gauge("late", "")
	late.Set(7)
	st.Sample(1)
	pts := points(t, st, Query{Series: "late"})
	if len(pts) != 1 || pts[0].Value != 7 {
		t.Fatalf("late series = %+v, want one point of 7", pts)
	}
}

// roundTimeHistograms registers n 30-bucket round-time histograms.
func roundTimeHistograms(tb testing.TB, reg *telemetry.Registry, n int) []*telemetry.Histogram {
	tb.Helper()
	bounds, err := telemetry.RoundTimeBuckets(1)
	if err != nil {
		tb.Fatal(err)
	}
	hists := make([]*telemetry.Histogram, n)
	for i := range hists {
		if hists[i], err = reg.Histogram("round_time_seconds", "", bounds, telemetry.L("disk", fmt.Sprint(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return hists
}

// TestSampleZeroAlloc holds Sample to 0 allocations once both rings have
// wrapped, the coarse one at a retention that is not a whole tile: 40
// blocks, chunks of 16, 16 and 8. The measured samples span two coarse
// chunks, so at least one coarse seal and eight fine ones.
func TestSampleZeroAlloc(t *testing.T) {
	const rounds, block, blocks = 32, 8, 40
	reg := telemetry.NewRegistry()
	for i := 0; i < 24; i++ {
		g := reg.Gauge("g", "", telemetry.Label{Key: "i", Value: string(rune('a' + i))})
		if i == 0 {
			g.Set(math.NaN()) // equal to itself sample after sample, by its bits
		}
	}
	h, err := reg.Histogram("h", "", []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(1)
	// What a server feeds: one observation per round, so one bucket of
	// thirty moves per sample and the log recycles in place. And the
	// opposite: every bucket moves every sample, so the log doubles until
	// it holds a whole retention of that, then recycles too.
	hists := roundTimeHistograms(t, reg, 2)
	steady, burst := hists[0], hists[1]
	bounds := burst.Bounds()
	st := New(Config{Registry: reg, Rounds: rounds, CoarseBlock: block, CoarseBlocks: blocks})
	round := 0
	sample := func() {
		steady.Observe(float64(round%7) / 4)
		for _, b := range bounds {
			burst.Observe(b)
		}
		burst.Observe(2 * bounds[len(bounds)-1])
		st.Sample(round)
		round++
	}
	// Warm past the coarse ring's wrap so steady state is measured.
	for round < (blocks+2)*block {
		sample()
	}
	if n := st.cohorts[0].coarse.n; n != blocks {
		t.Fatalf("the coarse ring retains %d blocks after the warm-up, want its retention %d", n, blocks)
	}
	if allocs := testing.AllocsPerRun(2*tile*block, sample); allocs != 0 {
		t.Fatalf("Sample allocates %v per run, want 0", allocs)
	}
	for _, rec := range st.series {
		if rec.h == nil && rec.rest == nil {
			t.Errorf("%s never moved and holds a column", rec.id)
		}
		switch rec.h {
		case h, steady:
			if len(rec.log) != rounds {
				t.Errorf("%s: log holds %d entries, want the initial %d", rec.id, len(rec.log), rounds)
			}
		case burst:
			// ⌈log₂ nb⌉ doublings hold (rounds-1)·nb entries.
			nb := len(rec.last)
			if most := rounds << bits.Len(uint(nb-1)); len(rec.log) < (rounds-1)*nb || len(rec.log) > most {
				t.Errorf("%s: log holds %d entries, want at least %d and at most %d", rec.id, len(rec.log), (rounds-1)*nb, most)
			}
		}
	}
}

// TestHistogramFootprint holds what a histogram costs the store to 2 B a
// log unit, beside a 1-byte mark per retained sample (marks widen only
// when a chunk of samples logs more than 255 units): the bytes attaching 32
// round-time histograms at the default retention allocates, beyond what 32
// gauges do, are under (2 + 1) × 4096 B and a KiB for the chunks' mark
// bases, its bucket counts and bounds — a tenth of one count per bucket
// per retained sample (30 × 4096 × 8 B = 960 KiB).
func TestHistogramFootprint(t *testing.T) {
	const n = 32
	attach := func(register func(reg *telemetry.Registry)) uint64 {
		reg := telemetry.NewRegistry()
		register(reg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := New(Config{Registry: reg})
		runtime.ReadMemStats(&after)
		if st.NumSeries() != n {
			t.Fatalf("%d series attached, want %d", st.NumSeries(), n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	gauges := attach(func(reg *telemetry.Registry) {
		for i := 0; i < n; i++ {
			reg.Gauge("g", "", telemetry.L("disk", fmt.Sprint(i)))
		}
	})
	hists := attach(func(reg *telemetry.Registry) { roundTimeHistograms(t, reg, n) })
	if per, most := (int64(hists)-int64(gauges))/n, int64((2+1)*DefaultRounds+1<<10); per >= most {
		t.Fatalf("a round-time histogram costs the store %d B at the default retention, want under %d: 2 B a log unit and 1 B a mark", per, most)
	}
}

// TestMarksWiden logs phases of one unit a sample, 40 a sample and 5 000
// a sample (a thousand buckets, each an escape entry), so a chunk of
// samples needs offsets of 1, then 2, then 3 bytes, and stops where the
// open chunk still holds samples from a lap before. Every retained
// sample's growth since the one before it, and since the oldest, reads
// back as the difference of the counts the test kept.
func TestMarksWiden(t *testing.T) {
	const rounds = 150
	bounds := make([]float64, 999)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	reg := telemetry.NewRegistry()
	h, err := reg.Histogram("h", "", bounds)
	if err != nil {
		t.Fatal(err)
	}
	st := New(Config{Registry: reg, Rounds: rounds})
	rec := st.series[0]
	counts := make(map[int64][]int64)
	var widths []int
	for r := 0; r < 3*rounds+30; r++ {
		switch r / 64 % 3 {
		case 0:
			h.Observe(float64(r % len(bounds)))
		case 1:
			for _, b := range bounds[:40] {
				h.Observe(b)
			}
		default:
			for _, b := range bounds {
				h.ObserveN(b, 1<<40)
			}
		}
		st.Sample(r)
		counts[int64(r)] = h.SnapshotValues().Counts
		if w := rec.marks.width; len(widths) == 0 || widths[len(widths)-1] != w {
			widths = append(widths, w)
		}
	}
	if !slices.Equal(widths, []int{1, 2, 3}) {
		t.Fatalf("the marks took widths %v, want 1, 2 and 3", widths)
	}
	co := rec.co
	if newest := co.fine.newest(); newest%chunk == chunk-1 || co.fine.n != rounds {
		t.Fatalf("the newest sample is at slot %d of a ring of %d retained: want a full ring whose open chunk holds samples from a lap before", newest, co.fine.n)
	}
	got := make([]int64, len(bounds)+1)
	check := func(prev, cur int) {
		want, total := deltas(counts[co.rounds[prev]], counts[co.rounds[cur]])
		if sum := rec.bucketDeltas(prev, cur, got); sum != total || !slices.Equal(got, want) {
			t.Fatalf("rounds %d to %d: the log reads back %d observations, want %d", co.rounds[prev], co.rounds[cur], sum, total)
		}
	}
	oldest, _ := co.fine.run(0)
	for k := 1; k < co.fine.n; k++ {
		prev, _ := co.fine.run(k - 1)
		cur, _ := co.fine.run(k)
		check(prev, cur)
	}
	check(oldest, co.fine.newest())
}

// TestFineFootprint holds what a woken series' fine values cost the store
// to what its ring of sealed chunks retains: 32 counters that step by one
// every round beside 32 gauges that hold still, once the fine ring has
// lapped twice. A counter's chunk takes 8 to 10 words; its ring may hold
// an eighth more words than it retained when it last grew, and the
// allocator's size class at most an eighth more again, so no ring holds
// more than (9/8)² words per word it retains, plus one. A ring that grew by
// doubling (1024 words for ≈ 640), kept the copy of each chunk a lap
// before, or a raw column (32 KiB at the default retention) is past that.
func TestFineFootprint(t *testing.T) {
	const n = 32
	reg := telemetry.NewRegistry()
	counters := make([]*telemetry.Counter, n)
	for i := range counters {
		counters[i] = reg.Counter("c", "", telemetry.L("i", fmt.Sprint(i)))
		reg.Gauge("g", "", telemetry.L("i", fmt.Sprint(i))).Set(float64(i))
	}
	st := New(Config{Registry: reg})
	for r := 0; r < 2*DefaultRounds; r++ {
		for _, c := range counters {
			c.Inc()
		}
		st.Sample(r)
	}
	fine := st.FineBytes()
	if len(fine) != n {
		t.Fatalf("%d series woke, want the %d counters", len(fine), n)
	}
	rings := 0
	for _, co := range st.cohorts {
		for _, g := range co.groups {
			for i := range g.fine {
				r := &g.fine[i]
				rings++
				retained := int(r.head - r.tail)
				if retained < 0 {
					retained += len(r.words)
				}
				if 64*len(r.words) > 81*retained+64 {
					t.Errorf("a ring of sealed chunks holds %d words for the %d it retains, want at most (9/8)² of them plus one", len(r.words), retained)
				}
			}
		}
	}
	if rings != n {
		t.Fatalf("%d rings of sealed chunks, want the %d counters'", rings, n)
	}
	total := 0
	for _, b := range fine {
		total += b
	}
	if per := total / n; per >= 8<<10 {
		t.Fatalf("a counter's fine values cost the store %d B at the default retention, want under 8 KiB", per)
	}
}

// TestCoarseFootprint holds what a woken series' envelopes cost the store
// to what its ring of sealed coarse chunks retains: a counter that steps by
// one every round, at the default retention of 1024 blocks, once 172 blocks
// have opened (a ring part filled) and once 1100 have (a ring lapped). Its
// coarse bytes beyond the open chunk's tile of 24-byte envelopes (384 B)
// and the chunk marks (256 B) are under 5 B a retained block: a block's
// last, max and min seal into ≈ 4.4 B, against 24 raw, and a ring that
// doubled, or was allocated at the whole retention's size, is past that.
// Every block reads back: step-64 points are the value at each block's
// last round.
func TestCoarseFootprint(t *testing.T) {
	for _, opened := range []int{172, 1100} {
		t.Run(fmt.Sprint(opened), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			c := reg.Counter("c", "")
			st := New(Config{Registry: reg})
			for r := 0; r < opened*DefaultCoarseBlock; r++ {
				c.Inc()
				st.Sample(r)
			}
			held := min(opened, DefaultCoarseBlocks)
			if got := st.cohorts[0].coarse.n; got != held {
				t.Fatalf("the coarse ring retains %d blocks, want %d", got, held)
			}
			fixed := tile*24 + DefaultCoarseBlocks/tile*4
			if got, most := st.CoarseBytes()[`c`], fixed+5*held; got > most {
				t.Fatalf("a counter's envelopes cost the store %d B for %d blocks, want at most %d: %d B a block beyond %d", got, held, most, (got-fixed)/held, fixed)
			}
			pts := points(t, st, Query{Series: "c", Step: DefaultCoarseBlock, Agg: AggLast})
			if len(pts) != held {
				t.Fatalf("%d points, want %d", len(pts), held)
			}
			for i, p := range pts {
				if want := float64((opened - held + i + 1) * DefaultCoarseBlock); p.Value != want || p.Round != int64(want)-1 {
					t.Fatalf("point %d = %+v, want %v at round %v", i, p, want, want-1)
				}
			}
		})
	}
}

// TestSealedRingWrapsAndRegrows seals chunks of still, counting and noisy
// values, a few words to a whole chunk's worst case, into one ring lap after
// lap, and after every seal reads every retained copy back by its bits,
// oldest first. The copies must cross the physical end of words, and the
// ring must regrow while what it retains straddles that end, so a read
// copies two segments and a regrowth re-bases ends[] across the wrap.
func TestSealedRingWrapsAndRegrows(t *testing.T) {
	const chunks = 5
	r := newSealedRing(chunks, chunks)
	var w chunkWords
	sealed := make([][]float64, chunks)
	got := make([]float64, chunk)
	crossed, rebased := 0, 0
	for q := 0; q < 400; q++ {
		c := q % chunks
		vals := make([]float64, 1+(q*37)%chunk)
		for i := range vals {
			switch q % 4 {
			case 0:
				vals[i] = 0.25
			case 1:
				vals[i] = float64(q*chunk + i)
			default:
				vals[i] = math.Float64frombits(0x9e3779b97f4a7c15 * uint64(q*chunk+i+1))
			}
		}
		wrapped, size := r.head < r.tail, len(r.words)
		r.seal(c, vals, q >= chunks, &w)
		if wrapped && len(r.words) != size {
			rebased++
		}
		sealed[c] = vals
		oldest := 0
		if q >= chunks {
			oldest = (c + 1) % chunks
		}
		start := r.tail
		for k := range min(q+1, chunks) {
			cc := (oldest + k) % chunks
			end := r.ends[cc]
			if end < start {
				crossed++
			}
			want := sealed[cc]
			r.read(got[:len(want)], start, end, &w)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seal %d: value %d of chunk %d reads back as %#x, sealed as %#x", q, i, cc, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			start = end
		}
		if start != r.head {
			t.Fatalf("seal %d: the retained copies end at %d, head is %d", q, start, r.head)
		}
	}
	if crossed == 0 || rebased == 0 {
		t.Fatalf("%d reads crossed the end of words, %d regrowths re-based a ring that did: want both", crossed, rebased)
	}
}

// FuzzFineChunk seals any 1 to chunk values and reads them back by their
// bits: NaN payloads, -0, infinities and subnormals come back as they went
// in. The input's bytes are the values, eight little-endian bytes each.
func FuzzFineChunk(f *testing.F) {
	seeds := [][]float64{
		{0},
		{math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead00000000)},
		{math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060, math.MaxFloat64},
		// A narrow XOR opens a window a wider one does not fit: on its
		// low side, then on its high side.
		{1, math.Float64frombits(math.Float64bits(1) ^ 1<<40), math.Float64frombits(math.Float64bits(1) ^ 1<<40 ^ 1), 3, 3, -3},
	}
	counter, still, noise := make([]float64, chunk), make([]float64, chunk), make([]float64, chunk)
	for i := range counter {
		counter[i], still[i] = float64(1000+i), 0.25
		noise[i] = math.Float64frombits(0x9e3779b97f4a7c15 * uint64(i+1))
	}
	seeds = append(seeds, counter, still, noise)
	for _, vals := range seeds {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, min(len(b)/8, chunk))
		if len(vals) == 0 {
			return
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		var w chunkWords
		r := newSealedRing(1, 0)
		r.seal(0, vals, false, &w)
		got := make([]float64, len(vals))
		r.read(got, r.tail, r.ends[0], &w)
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d of %d reads back as %#x, sealed as %#x", i, len(vals), math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	})
}

// FuzzCoarseChunk seals any 1 to tile envelopes as one coarse chunk does,
// interleaved, and reads each back by its bits: NaN, -0, infinities and
// envelopes whose min is above their max come back as they went in. The
// input's bytes are the envelopes, 24 little-endian bytes each: min, max,
// last.
func FuzzCoarseChunk(f *testing.F) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	seeds := [][]envelope{
		{{0, 0, 0}},
		{{negZero, 0, negZero}, {0, negZero, 0}},
		{{5, 3, 4}, {nan, 1, 2}, {1, nan, nan}, {math.Inf(1), math.Inf(-1), 0}},
		{{math.SmallestNonzeroFloat64, math.MaxFloat64, -0x1p-1060}, {math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead00000000), 1}},
	}
	counter, noise := make([]envelope, tile), make([]envelope, tile)
	for i := range counter {
		counter[i] = envelope{min: float64(64*i + 1), max: float64(64*i + 64), last: float64(64*i + 64)}
		x := func(j int) float64 { return math.Float64frombits(0x9e3779b97f4a7c15 * uint64(3*i+j+1)) }
		noise[i] = envelope{x(0), x(1), x(2)}
	}
	seeds = append(seeds, counter, noise)
	for _, env := range seeds {
		b := make([]byte, 24*len(env))
		for i, e := range env {
			binary.LittleEndian.PutUint64(b[24*i:], math.Float64bits(e.min))
			binary.LittleEndian.PutUint64(b[24*i+8:], math.Float64bits(e.max))
			binary.LittleEndian.PutUint64(b[24*i+16:], math.Float64bits(e.last))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		env := make([]envelope, min(len(b)/24, tile))
		if len(env) == 0 {
			return
		}
		for i := range env {
			at := func(j int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[24*i+8*j:])) }
			env[i] = envelope{min: at(0), max: at(1), last: at(2)}
		}
		var vals [chunk]float64
		var w chunkWords
		r := newSealedRing(1, 0)
		r.seal(0, interleave(vals[:], env), false, &w)
		r.read(vals[:3*len(env)], r.tail, r.ends[0], &w)
		got := make([]envelope, len(env))
		deinterleave(got, vals[:])
		for i := range env {
			for _, f := range []func(envelope) float64{
				func(e envelope) float64 { return e.min },
				func(e envelope) float64 { return e.max },
				func(e envelope) float64 { return e.last },
			} {
				if math.Float64bits(f(got[i])) != math.Float64bits(f(env[i])) {
					t.Fatalf("envelope %d of %d reads back as %v, sealed as %v", i, len(env), got[i], env[i])
				}
			}
		}
	})
}

// FuzzLogEntries appends any bucket growths to a histogram's log, from a
// position just below where the 32-bit positions wrap and into a log that
// must grow, and reads them back per bucket: a bucket at or past escape,
// or a growth of 256 or more (2³³, the widest int64), goes through an
// escape entry and comes back whole. The input's bytes are the entries,
// ten little-endian bytes each: the bucket (modulo telemetry.MaxBuckets),
// then the growth (its top bit dropped; 0 is skipped).
func FuzzLogEntries(f *testing.F) {
	entry := func(j uint16, d int64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, j)
		return binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	for _, seed := range [][][]byte{
		{entry(0, 1), entry(254, 255)},
		{entry(255, 1), entry(254, 256), entry(300, 1<<33)},
		{entry(65534, math.MaxInt64), entry(1, 1<<16), entry(255, 1<<16), entry(7, 3)},
	} {
		f.Add(bytes.Join(seed, nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec := &seriesRec{log: make([]logUnit, 4), head: math.MaxUint32 - 5}
		start := rec.head
		want := make([]int64, telemetry.MaxBuckets)
		var total int64
		for ; len(b) >= 10; b = b[10:] {
			j := int(binary.LittleEndian.Uint16(b)) % telemetry.MaxBuckets
			d := int64(binary.LittleEndian.Uint64(b[2:]) >> 1)
			if d == 0 {
				continue
			}
			rec.append(j, d, start)
			want[j] += d
			total += d
		}
		got := make([]int64, telemetry.MaxBuckets)
		if sum := rec.replay(start, rec.head, got); sum != total || !slices.Equal(got, want) {
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("bucket %d grew by %d, logged %d", j, want[j], got[j])
				}
			}
			t.Fatalf("the log reads back a growth of %d, want %d", sum, total)
		}
	})
}

// rings returns every ring of sealed chunks of a group, fine then coarse.
func rings(g *group) []*sealedRing {
	var rs []*sealedRing
	for _, tier := range [][]sealedRing{g.fine, g.coarse} {
		for i := range tier {
			rs = append(rs, &tier[i])
		}
	}
	return rs
}

// TestLogPositionsWrap starts the histograms' logs three entries below
// where their 32-bit positions wrap and runs the model across it, growth
// included; halfway through, it rotates every ring of sealed chunks so
// that its oldest retained word is the last of words — every word and
// position moved by the same distance modulo the ring's length — and runs
// on from there, reading what straddles the end and re-basing it when a
// ring regrows.
func TestLogPositionsWrap(t *testing.T) {
	m := newModelRun(t, Config{Rounds: 13, CoarseBlock: 4, CoarseBlocks: 6}, 1)
	var hists []*seriesRec
	for _, rec := range m.st.series {
		if rec.h != nil {
			rec.head = math.MaxUint32 - 2
			hists = append(hists, rec)
		}
	}
	m.run(3)
	straddled := 0
	for _, co := range m.st.cohorts {
		for _, g := range co.groups {
			for _, r := range rings(g) {
				n := uint32(len(r.words))
				d := n - 1 - r.tail
				words := make([]uint64, n)
				for p, w := range r.words {
					words[(uint32(p)+d)%n] = w
				}
				r.words = words
				r.head, r.tail = (r.head+d)%n, (r.tail+d)%n
				for c := range r.ends {
					r.ends[c] = (r.ends[c] + d) % n
				}
				if r.head < r.tail {
					straddled++
				}
			}
		}
	}
	m.run(3)
	if len(hists) != 2 {
		t.Fatalf("%d histograms attached before the first sample, want 2", len(hists))
	}
	for _, rec := range hists {
		if rec.head > math.MaxUint32/2 {
			t.Errorf("%s: log position %d has not wrapped", rec.id, rec.head)
		}
	}
	if straddled == 0 {
		t.Fatal("no ring of sealed chunks retained words across its end halfway through")
	}
}

// BenchmarkSample measures one per-round sample, every histogram observed
// once and every counter moved per op as a round would while the gauges
// rest, at a registry shaped like a loaded
// single-server run (32 scalar series plus two per-disk round-time
// histograms) and like the 8-shard cluster's (≈ 700 scalar series plus 33
// histograms at the default retention), warmed past the fine ring's
// wrap-around and through several coarse blocks so the timed region is the
// steady state: ring slots, coarse blocks and log entries recycling in
// place with no growth anywhere.
func BenchmarkSample(b *testing.B) {
	for _, shape := range []struct {
		name                  string
		scalars, hists, fines int
	}{
		{"server", 32, 2, 256},
		{"cluster", 700, 33, DefaultRounds},
	} {
		b.Run(shape.name, func(b *testing.B) {
			reg := telemetry.NewRegistry()
			counters := make([]*telemetry.Counter, shape.scalars/2)
			for i := range counters {
				counters[i] = reg.Counter(fmt.Sprintf("bench_counter_%d_total", i), "bench counter")
				reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), "bench gauge").Set(float64(i))
			}
			hists := roundTimeHistograms(b, reg, shape.hists)
			st := New(Config{Registry: reg, Rounds: shape.fines})
			sample := func(r int) {
				for _, c := range counters {
					c.Add(1)
				}
				for _, h := range hists {
					h.Observe(float64(r%9) / 8)
				}
				st.Sample(r)
			}
			warm := shape.fines + 2*DefaultCoarseBlock
			for r := 0; r < warm; r++ {
				sample(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sample(warm + i)
			}
		})
	}
}

func TestNilStoreInert(t *testing.T) {
	var st *Store
	st.Sample(1)
	if st.LastRound() != -1 || st.NumSeries() != 0 || st.Samples() != 0 {
		t.Fatal("nil store should report empty state")
	}
	if _, err := st.Query(Query{Series: "x"}); err == nil {
		t.Fatal("nil store query should fail")
	}
	if d := st.Dump(16); len(d.Series) != 0 {
		t.Fatal("nil store dump should be empty")
	}
	if pts := st.TailTrajectory("x", 1, 0, 1); pts != nil {
		t.Fatal("nil store tail should be nil")
	}
	rec := httptest.NewRecorder()
	st.QueryHandler()(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != 404 {
		t.Fatalf("nil store /query = %d, want 404", rec.Code)
	}
}

func TestTailTrajectory(t *testing.T) {
	st, reg := testStore(t, 64, 16, 8)
	h, err := reg.Histogram("rt", "", []float64{0.5, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1 (rounds 0..3): 8 obs ≤ 1, 2 obs > 1 → tail 0.2.
	// Window 2 (rounds 4..7): all 10 obs > 1 → tail 1.0.
	for r := 0; r < 8; r++ {
		for i := 0; i < 10; i++ {
			if r < 4 {
				if i < 8 {
					h.Observe(0.5)
				} else {
					h.Observe(2)
				}
			} else {
				h.Observe(2)
			}
		}
		st.Sample(r)
	}
	id := "rt"
	pts := st.TailTrajectory(id, 1, 0, 4)
	if len(pts) != 1 {
		t.Fatalf("got %d tail points, want 1: %+v", len(pts), pts)
	}
	if math.Abs(pts[0].Value-1.0) > 1e-12 {
		t.Fatalf("tail = %v, want 1.0 (all window-2 observations late)", pts[0].Value)
	}
	// Finer step: per-round deltas. Rounds 1..3 windows have tail 0.2.
	fine := st.TailTrajectory(id, 1, 0, 1)
	if len(fine) != 7 {
		t.Fatalf("got %d fine tail points, want 7", len(fine))
	}
	if math.Abs(fine[0].Value-0.2) > 1e-12 {
		t.Fatalf("fine tail = %v, want 0.2", fine[0].Value)
	}
}

func TestDump(t *testing.T) {
	st, reg := testStore(t, 512, 64, 8)
	g := reg.Gauge("g", "")
	for r := 0; r < 400; r++ {
		g.Set(float64(r))
		st.Sample(r)
	}
	d := st.Dump(64)
	if len(d.Series) != 1 {
		t.Fatalf("dump has %d series, want 1", len(d.Series))
	}
	if n := len(d.Series[0].Points); n == 0 || n > 64 {
		t.Fatalf("dump has %d points, want 1..64", n)
	}
}

func TestQueryHandler(t *testing.T) {
	st, reg := testStore(t, 16, 4, 40)
	g := reg.Gauge("mz_g", "")
	for r := 0; r < 6; r++ {
		g.Set(float64(r))
		st.Sample(r)
	}
	h := st.QueryHandler()

	// Discovery index.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != 200 {
		t.Fatalf("index status = %d", rec.Code)
	}
	var idx indexReport
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Series) != 1 || idx.Series[0] != "mz_g" || idx.LastRound != 5 {
		t.Fatalf("index = %+v", idx)
	}
	// The configured geometry.
	if idx.Rounds != 16 || idx.Block != 4 || idx.Blocks != 40 {
		t.Fatalf("index retention = %d rounds, %d-round blocks, %d blocks; want 16, 4, 40", idx.Rounds, idx.Block, idx.Blocks)
	}

	// JSON query.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/query?series=mz_g&since_round=2&agg=last", nil))
	if rec.Code != 200 {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
	}
	var res Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 4 {
		t.Fatalf("query result = %+v", res)
	}

	// NDJSON.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/query?series=mz_g&format=ndjson", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("ndjson rows = %d, want 6", len(lines))
	}

	// 400s: unknown series, bad agg, bad step, bad since_round.
	for _, url := range []string{
		"/query?series=nope",
		"/query?series=mz_g&agg=avg",
		"/query?series=mz_g&step=x",
		"/query?series=mz_g&step=-1",
		"/query?series=mz_g&since_round=x",
	} {
		rec = httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Fatalf("%s status = %d, want 400", url, rec.Code)
		}
	}
}

// TestQueryNonFiniteFailsClosed: encoding/json has no rendering for NaN or
// ±Inf, and a gauge may hold either (/metrics prints them). The handler
// answers 500 with the encoder's message, never 200 with an empty body or
// with some of the lines.
func TestQueryNonFiniteFailsClosed(t *testing.T) {
	st, reg := testStore(t, 16, 4, 8)
	g := reg.Gauge("mz_g", "")
	for r, v := range []float64{1, math.NaN(), math.Inf(1), 4} {
		g.Set(v)
		st.Sample(r)
	}
	h := st.QueryHandler()
	for _, url := range []string{"/query?series=mz_g", "/query?series=mz_g&format=ndjson"} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 500 || !strings.Contains(rec.Body.String(), "unsupported value") {
			t.Errorf("%s over a NaN point: status %d, body %q; want 500 and the encoder's message", url, rec.Code, rec.Body.String())
		}
	}
	// The finite part of the same series still answers.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/query?series=mz_g&since_round=3&format=ndjson", nil))
	if rec.Code != 200 || strings.Count(rec.Body.String(), "\n") != 1 {
		t.Errorf("finite window: status %d, body %q; want 200 and one line", rec.Code, rec.Body.String())
	}
}

func TestDashboardHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := New(Config{Registry: reg, Rounds: 256})
	disk := telemetry.Label{Key: "disk", Value: "0"}
	rt, err := reg.Histogram(seriesRoundTime, "", []float64{0.5, 1, 2}, disk)
	if err != nil {
		t.Fatal(err)
	}
	bound := reg.Gauge(seriesBoundLate, "")
	measured := reg.Gauge(seriesMeasured, "",
		telemetry.Label{Key: "target", Value: "late"}, telemetry.Label{Key: "window", Value: "fast"})
	reg.Gauge(seriesBudget, "", telemetry.Label{Key: "target", Value: "late"}).Set(0.01)
	state := reg.Gauge(seriesAlertState, "", telemetry.Label{Key: "target", Value: "late"})
	active := reg.Gauge(seriesActive, "")
	bound.Set(1e-6)
	for r := 0; r < 128; r++ {
		rt.Observe(0.5)
		if r%7 == 0 {
			rt.Observe(2)
		}
		measured.Set(float64(r%3) / 100)
		if r > 64 {
			state.Set(2) // firing band
		}
		active.Set(float64(10 + r%4))
		st.Sample(r)
	}
	rec := httptest.NewRecorder()
	st.DashboardHandler(DashboardConfig{Title: "test", RoundLength: 1})(rec, httptest.NewRequest("GET", "/dashboard?window=16", nil))
	if rec.Code != 200 {
		t.Fatalf("dashboard status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"<svg", "Measured tail vs analytic bound", "analytic b_late",
		"SLO measured rate vs budget", "</i>fast = ", "</i>budget = ", "Admission", "polyline",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	for _, ban := range []string{"<script", "http://", "https://", "src="} {
		if strings.Contains(body, ban) {
			t.Fatalf("dashboard must be self-contained, found %q", ban)
		}
	}

	// Empty store still serves a page.
	empty := New(Config{Registry: telemetry.NewRegistry()})
	rec = httptest.NewRecorder()
	empty.DashboardHandler(DashboardConfig{})(rec, httptest.NewRequest("GET", "/dashboard", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "no history samples yet") {
		t.Fatalf("empty dashboard = %d %q", rec.Code, rec.Body.String())
	}
}

func TestSeriesIDsSorted(t *testing.T) {
	st, reg := testStore(t, 8, 4, 4)
	reg.Gauge("zeta", "")
	reg.Gauge("alpha", "")
	ids := st.SeriesIDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "zeta" {
		t.Fatalf("SeriesIDs = %v", ids)
	}
}
