// Package telemetry is the zero-dependency observability layer of the
// repository: counters, gauges, and fixed-bucket histograms that are safe
// for any number of concurrent writers, allocation-free on the hot path,
// and exposable both as a typed Snapshot (for tests and the mzqos facade)
// and as Prometheus text (for the mzserver endpoint).
//
// The histogram buckets are log-spaced and anchored at the scheduling
// round length t (see RoundTimeBuckets), so the paper's tail event
// T_N ≥ t is always an exact bucket boundary: the measured P̂[T_N ≥ t]
// read off a histogram is exact, never interpolated, and can be compared
// directly against the analytic Chernoff bound b_late(N, t).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 metric, for
// accumulated totals measured in continuous units (e.g. per-phase service
// seconds). Unlike a Gauge it can only go up, so it is exposed with
// Prometheus counter semantics (rate() and increase() are meaningful).
// The zero value is ready to use; all methods are safe for concurrent use.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v (CAS loop; non-positive v is ignored — counters only
// go up).
func (c *FloatCounter) Add(v float64) {
	if !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v if v exceeds the current value (running
// maximum, e.g. peak per-round disk load).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with Prometheus "le" semantics:
// bucket i counts observations v with bounds[i-1] < v ≤ bounds[i], and one
// implicit overflow bucket counts v > bounds[len-1]. Buckets are fixed at
// construction, so Observe is one binary search plus two atomic adds — no
// allocation, no lock.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	total   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given strictly increasing,
// finite upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("telemetry: bucket bound %d is not finite", i)
		}
		if i > 0 && !(b > bounds[i-1]) {
			return nil, fmt.Errorf("telemetry: bucket bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h, nil
}

// roundTimeBucketLo and ...Hi delimit the quarter-octave exponent range of
// RoundTimeBuckets: t·2^(k/4) for k in [lo, hi]. k = 0 puts the round
// length itself on a boundary.
const (
	roundTimeBucketLo = -16 // t/16
	roundTimeBucketHi = 12  // 8t
)

// RoundTimeBuckets returns log-spaced bucket bounds anchored at the round
// length t: t·2^(k/4) for k in [-16, 12] (t/16 up to 8t, resolution ~19%
// per bucket). t itself is always a boundary (k = 0), so a histogram of
// round service times resolves the tail P̂[T ≥ t] exactly — the measured
// counterpart of the paper's b_late(N, t).
func RoundTimeBuckets(t float64) ([]float64, error) {
	if !(t > 0) || math.IsInf(t, 1) {
		return nil, fmt.Errorf("telemetry: round length must be positive and finite")
	}
	bounds := make([]float64, 0, roundTimeBucketHi-roundTimeBucketLo+1)
	for k := roundTimeBucketLo; k <= roundTimeBucketHi; k++ {
		if k == 0 {
			bounds = append(bounds, t) // exact, no FP round-trip
			continue
		}
		bounds = append(bounds, t*math.Exp2(float64(k)/4))
	}
	return bounds, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveN records n observations of the same value in one shot — the
// bulk path for folding an external cumulative histogram (e.g. the
// runtime's GC-pause distribution) into this one bucket delta at a time.
// Non-positive n is ignored.
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.total.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// SnapshotValues returns an immutable copy of the histogram state. The
// copy is not atomic with respect to concurrent Observe calls (counts may
// be ahead of sum by in-flight observations), which is harmless for
// monitoring.
func (h *Histogram) SnapshotValues() HistogramValues {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return HistogramValues{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: counts,
		Count:  total,
		Sum:    h.Sum(),
	}
}

// NumBuckets returns the bucket count including the trailing +Inf
// overflow bucket (len(Bounds())+1).
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Bounds returns a copy of the finite upper bucket bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCount returns the live count of bucket i, 0 ≤ i < NumBuckets()
// (the last is the +Inf overflow): one atomic load, for a sampler that
// keeps the counts it saw last and records only what moved. Like
// SnapshotValues, a pass over the buckets is not atomic across them, which
// is harmless for monitoring.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// HistogramValues is an immutable histogram snapshot. Counts has one entry
// per bound plus a final overflow bucket (> Bounds[len-1]).
type HistogramValues struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// TailAbove returns the fraction of observations strictly greater than
// threshold; exact when threshold is a bucket boundary, otherwise the
// smallest bucket-resolved overestimate (all observations of the bucket
// containing the threshold count toward the tail).
func (v HistogramValues) TailAbove(threshold float64) float64 {
	if v.Count == 0 {
		return 0
	}
	i := sort.SearchFloat64s(v.Bounds, threshold) // first bound >= threshold
	var below int64
	for k := 0; k <= i && k < len(v.Bounds); k++ {
		if v.Bounds[k] > threshold {
			break // threshold falls inside bucket k: leave it in the tail
		}
		below += v.Counts[k]
	}
	return float64(v.Count-below) / float64(v.Count)
}

// Quantile returns a bucket-resolved upper estimate of the q-quantile: the
// smallest bucket upper bound whose cumulative count reaches q·Count
// (+Inf-bucket hits report the largest finite bound).
func (v HistogramValues) Quantile(q float64) float64 {
	if v.Count == 0 || len(v.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(v.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range v.Counts {
		cum += c
		if cum >= target {
			if i < len(v.Bounds) {
				return v.Bounds[i]
			}
			return v.Bounds[len(v.Bounds)-1]
		}
	}
	return v.Bounds[len(v.Bounds)-1]
}
