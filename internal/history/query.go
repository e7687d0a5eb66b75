package history

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mzqos/internal/telemetry"
)

// Aggregations accepted by Query.Agg. last/min/max/rate work on every
// kind (rate of a histogram is its observation rate); the quantile
// aggregations require a histogram series and are computed over the
// bucket deltas of each step window — quantile-over-time, not a
// quantile of the whole run.
const (
	AggLast = "last"
	AggRate = "rate"
	AggMin  = "min"
	AggMax  = "max"
	AggP50  = "p50"
	AggP99  = "p99"
	AggP999 = "p999"
)

// Errors reported by Query. Callers map ErrUnknownSeries and ErrBadQuery
// to HTTP 400.
var (
	// ErrUnknownSeries is returned when the selector matches nothing.
	ErrUnknownSeries = errors.New("history: unknown series")
	// ErrBadQuery is returned for invalid parameters (unknown agg, a
	// quantile agg on a scalar series).
	ErrBadQuery = errors.New("history: bad query")
)

// Query selects a windowed, aggregated slice of the stored trajectories.
type Query struct {
	// Series selects by metric name (matching every label set of that
	// name), or — when it contains '{' — by full series id or id prefix,
	// e.g. "mzqos_slo_measured{target=late}" matches both windows of the
	// late target.
	Series string
	// SinceRound drops samples before this round (0 keeps everything
	// retained; rounds older than the fine retention resolve from the
	// coarse ring, a block at its last round, where its point is stamped).
	SinceRound int64
	// Step coalesces this many rounds into one output point (0 or 1 =
	// every sample).
	Step int
	// Agg is the within-step aggregation (empty = AggLast).
	Agg string
}

// Point is one output sample.
type Point struct {
	Round int64   `json:"round"`
	Value float64 `json:"value"`
}

// SeriesResult is one matched series' aggregated trajectory.
type SeriesResult struct {
	ID     string            `json:"id"`
	Name   string            `json:"name"`
	Labels []telemetry.Label `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Points []Point           `json:"points"`
	// CoarsePoints counts how many leading points were served from the
	// coarse min/max/last ring because the window reached past the fine
	// retention.
	CoarsePoints int `json:"coarse_points,omitempty"`
}

// Result is a query response.
type Result struct {
	Series     []SeriesResult `json:"series"`
	Agg        string         `json:"agg"`
	SinceRound int64          `json:"since_round"`
	Step       int            `json:"step"`
	LastRound  int64          `json:"last_round"`
}

// kindName renders a telemetry.Kind for the query payload.
func kindName(k telemetry.Kind) string {
	switch k {
	case telemetry.KindCounter:
		return "counter"
	case telemetry.KindGauge:
		return "gauge"
	case telemetry.KindHistogram:
		return "histogram"
	case telemetry.KindFloatCounter:
		return "float_counter"
	}
	return "unknown"
}

// quantileAggs maps the quantile aggregations to their q.
var quantileAggs = map[string]float64{AggP50: 0.5, AggP99: 0.99, AggP999: 0.999}

// validAgg reports whether agg names a supported aggregation.
func validAgg(agg string) bool {
	switch agg {
	case AggLast, AggRate, AggMin, AggMax, AggP50, AggP99, AggP999:
		return true
	}
	return false
}

// Query evaluates q against the store. Safe for concurrent use with
// Sample.
func (st *Store) Query(q Query) (Result, error) {
	agg := q.Agg
	if agg == "" {
		agg = AggLast
	}
	if !validAgg(agg) {
		return Result{}, fmt.Errorf("%w: unknown agg %q", ErrBadQuery, agg)
	}
	step := q.Step
	if step <= 0 {
		step = 1
	}
	if st == nil {
		return Result{}, ErrUnknownSeries
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.maybeRefreshLocked()
	recs := st.matchLocked(q.Series)
	if len(recs) == 0 {
		return Result{}, fmt.Errorf("%w: %q", ErrUnknownSeries, q.Series)
	}
	var hist reducer
	if qv, ok := quantileAggs[agg]; ok {
		hist = func(v telemetry.HistogramValues) float64 { return v.Quantile(qv) }
	}
	res := Result{Agg: agg, SinceRound: q.SinceRound, Step: step, LastRound: st.lastRound}
	for _, rec := range recs {
		if hist != nil && rec.h == nil {
			return Result{}, fmt.Errorf("%w: agg %q requires a histogram series, %s is a %s",
				ErrBadQuery, agg, rec.id, kindName(rec.src.Kind))
		}
		res.Series = append(res.Series, rec.result(q.SinceRound, int64(step), agg, hist, st.block))
	}
	return res, nil
}

// result renders one series' windowed aggregation with its identity.
// Runs under the store mutex.
func (rec *seriesRec) result(since, step int64, agg string, hist reducer, block int64) SeriesResult {
	src := rec.src
	sr := SeriesResult{
		ID:     rec.id,
		Name:   src.Name,
		Labels: src.Labels,
		Kind:   kindName(src.Kind),
	}
	sr.Points, sr.CoarsePoints = rec.evaluate(since, step, agg, hist, block)
	if sr.Points == nil {
		sr.Points = []Point{}
	}
	return sr
}

// matchLocked resolves a selector to series records: by exact name, or —
// with '{' present — by series id or id prefix.
func (st *Store) matchLocked(sel string) []*seriesRec {
	if sel == "" {
		return nil
	}
	if !strings.Contains(sel, "{") {
		return st.byName[sel]
	}
	var out []*seriesRec
	for _, rec := range st.series {
		if rec.id == sel || strings.HasPrefix(rec.id, sel) {
			out = append(out, rec)
		}
	}
	return out
}

// reducer reads one value out of a step window's bucket deltas: a quantile
// for the p50/p99/p999 aggregations, the fraction above the deadline for
// TailTrajectory.
type reducer func(telemetry.HistogramValues) float64

// bucketAgg is one step window's accumulated state during evaluation.
type bucketAgg struct {
	key        int64 // round/step
	round      int64 // round of the window's last sample
	last       float64
	min, max   float64
	slot       int // the fine ring slot of the window's last sample, -1 for a coarse block
	coarseOnly bool
}

// evaluate renders one series' windowed aggregation: agg of each step
// window's samples, or, when hist is set, hist of the bucket growth from
// each window's last sample to the next one's (agg is then not read). The
// one walk over a series' rings: Query, Dump and TailTrajectory all read
// through it, and it reads each retained value once, oldest first, as it
// folds it. Runs under the store mutex.
func (rec *seriesRec) evaluate(since, step int64, agg string, hist reducer, block int64) ([]Point, int) {
	co := rec.co
	// Oldest retained fine round bounds the coarse contribution.
	fineStart := int64(math.MaxInt64)
	if co.fine.n > 0 {
		slot, _ := co.fine.run(0)
		fineStart = co.rounds[slot]
	}

	// A window per step the retained rounds span, at most one per entry.
	entries, first := co.fine.n, fineStart
	if hist == nil && co.coarse.n > 0 {
		slot, _ := co.coarse.run(0)
		entries, first = entries+co.coarse.n, min(first, co.starts[slot])
	}
	if entries > 0 {
		entries = int(min(int64(entries), (co.rounds[co.fine.newest()]-first)/step+2))
	}
	windows := make([]bucketAgg, 0, entries)
	fold := func(round int64, last, vmin, vmax float64, slot int, coarse bool) {
		key := round / step
		if len(windows) > 0 && windows[len(windows)-1].key == key {
			w := &windows[len(windows)-1]
			w.round, w.last, w.slot = round, last, slot
			if vmin < w.min {
				w.min = vmin
			}
			if vmax > w.max {
				w.max = vmax
			}
			w.coarseOnly = w.coarseOnly && coarse
			return
		}
		windows = append(windows, bucketAgg{
			key: key, round: round, last: last, min: vmin, max: vmax,
			slot: slot, coarseOnly: coarse,
		})
	}

	// Coarse blocks entirely older than the fine ring, oldest first, each
	// stamped at its last round, where the value it keeps as last was read
	// (every round is sampled by the round loops, so that is the block's
	// last sample). A block overlapping the fine retention is skipped — its
	// rounds are already served at full resolution and folding it in would
	// invent a phantom point. The block starts alone tell, so a run of
	// blocks that all end before since is passed over, and the pass stops
	// at the first block that overlaps, before either is decoded (a run is
	// one coarse chunk). A reducer skips the tier: blocks carry no bucket
	// counts, and their windows, all ahead of the first fine one, could
	// only be passed over below.
	for k := 0; k < co.coarse.n && hist == nil; {
		slot, run := co.coarse.run(k)
		if co.starts[slot]+block-1 >= fineStart {
			break
		}
		if co.starts[slot+run-1]+block-1 >= since {
			starts, env := rec.coarseRun(k)
			for j, start := range starts {
				if end := start + block - 1; end >= since && end < fineStart {
					fold(end, env[j].last, env[j].min, env[j].max, -1, true)
				}
			}
		}
		k += run
	}
	// Fine samples, oldest first.
	for k := 0; k < co.fine.n; {
		slot, rounds, vals := rec.fineRun(k)
		for j, round := range rounds {
			if round >= since {
				fold(round, vals[j], vals[j], vals[j], slot+j, false)
			}
		}
		k += len(rounds)
	}

	if hist != nil {
		// A point per window after the first with observations since the
		// one before; below two windows there is no growth to reduce, and
		// the answer is nil, not empty.
		if len(windows) < 2 {
			return nil, 0
		}
		deltas := make([]int64, len(rec.last))
		points := make([]Point, 0, len(windows)-1)
		for i := 1; i < len(windows); i++ {
			if total := rec.bucketDeltas(windows[i-1].slot, windows[i].slot, deltas); total > 0 {
				points = append(points, Point{Round: windows[i].round, Value: hist(telemetry.HistogramValues{Bounds: rec.bounds, Counts: deltas, Count: total})})
			}
		}
		return points, 0
	}
	if len(windows) == 0 {
		return nil, 0
	}
	points := make([]Point, 0, len(windows))
	coarsePoints := 0
	for i := range windows {
		w := &windows[i]
		v := w.last
		switch agg {
		case AggMin:
			v = w.min
		case AggMax:
			v = w.max
		case AggRate:
			// Per-round delta between consecutive window endpoints; the
			// first window seeds the base and emits nothing.
			if i == 0 || w.round <= windows[i-1].round {
				continue
			}
			v = (w.last - windows[i-1].last) / float64(w.round-windows[i-1].round)
		}
		points = append(points, Point{Round: w.round, Value: v})
		if w.coarseOnly {
			coarsePoints++
		}
	}
	return points, coarsePoints
}

// Dump snapshots every attached series with agg last, downsampled so no
// series carries more than maxPoints points — the /debug/bundle payload,
// bounded regardless of retention.
func (st *Store) Dump(maxPoints int) Result {
	if st == nil {
		return Result{}
	}
	if maxPoints <= 0 {
		maxPoints = 256
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	step := int64(1)
	if st.lastRound >= int64(maxPoints) {
		step = (st.lastRound + int64(maxPoints)) / int64(maxPoints)
	}
	res := Result{Agg: AggLast, Step: int(step), LastRound: st.lastRound}
	for _, rec := range st.series {
		res.Series = append(res.Series, rec.result(0, step, AggLast, nil, st.block))
	}
	return res
}
