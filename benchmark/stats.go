package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a metric's spread across the segments of one run: host-time
// metrics report Median, with Q1/Q3 and N beside it so a reader can tell
// whether a difference between two runs is wider than the run's own noise.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles of vals (which it sorts a
// copy of). A noisy-neighbour burst that lands in a few segments moves the
// tails of this distribution, not its median.
func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		Median: percentile(s, 0.5),
		Q1:     percentile(s, 0.25),
		Q3:     percentile(s, 0.75),
		N:      len(s),
	}
}

// relSpread is the interquartile range as a share of the median (0 when the
// median is 0): the same-run noise figure printed beside each bound.
func (s summary) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// exact wraps a value that repeats exactly for a seed (a simulated count or
// rate) in the summary shape.
func exact(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 1} }

// sortedCopyNs converts nanosecond samples to an ascending float slice.
func sortedCopyNs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

// tally counts operations attempted and failed — the benchmark's checks are
// operations too — and keeps the first few failure messages for the report.
type tally struct {
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
}

const maxFailureMessages = 16

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < maxFailureMessages {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// absorb adds another tally's counts and messages to this one.
func (t *tally) absorb(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Failures = append(t.Failures, o.Failures...)
	if len(t.Failures) > maxFailureMessages {
		t.Failures = t.Failures[:maxFailureMessages]
	}
}
