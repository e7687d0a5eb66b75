package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestRoundTimeBucketsAnchor(t *testing.T) {
	for _, rt := range []float64{0.25, 1, 1.5, 30} {
		bounds, err := RoundTimeBuckets(rt)
		if err != nil {
			t.Fatalf("RoundTimeBuckets(%v): %v", rt, err)
		}
		if got, want := len(bounds), roundTimeBucketHi-roundTimeBucketLo+1; got != want {
			t.Fatalf("RoundTimeBuckets(%v): %d bounds, want %d", rt, got, want)
		}
		anchored := false
		for i, b := range bounds {
			if b == rt {
				anchored = true
			}
			if i > 0 && !(b > bounds[i-1]) {
				t.Fatalf("RoundTimeBuckets(%v): bounds not strictly increasing at %d", rt, i)
			}
		}
		if !anchored {
			t.Fatalf("RoundTimeBuckets(%v): round length is not an exact boundary", rt)
		}
		if bounds[0] >= rt/8 || bounds[len(bounds)-1] <= 4*rt {
			t.Fatalf("RoundTimeBuckets(%v): range [%v, %v] too narrow to resolve the tail",
				rt, bounds[0], bounds[len(bounds)-1])
		}
	}
	if _, err := RoundTimeBuckets(0); err == nil {
		t.Fatal("RoundTimeBuckets(0) should fail")
	}
	if _, err := RoundTimeBuckets(math.Inf(1)); err == nil {
		t.Fatal("RoundTimeBuckets(+Inf) should fail")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// le semantics: a value exactly on a boundary belongs to that bucket.
	h.Observe(0.5) // bucket 0 (<= 1)
	h.Observe(1)   // bucket 0 (== 1)
	h.Observe(1.5) // bucket 1
	h.Observe(2)   // bucket 1 (== 2)
	h.Observe(3)   // bucket 2
	h.Observe(4)   // bucket 2 (== 4)
	h.Observe(9)   // overflow
	v := h.SnapshotValues()
	want := []int64{2, 2, 2, 1}
	for i, w := range want {
		if v.Counts[i] != w {
			t.Fatalf("bucket %d: got %d, want %d (counts %v)", i, v.Counts[i], w, v.Counts)
		}
	}
	if v.Count != 7 {
		t.Fatalf("count: got %d, want 7", v.Count)
	}
	if got, want := v.Sum, 0.5+1+1.5+2+3+4+9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum: got %v, want %v", got, want)
	}

	// Tail above a boundary is exact: strictly-greater observations only.
	if got, want := v.TailAbove(2), 3.0/7; math.Abs(got-want) > 1e-15 {
		t.Fatalf("TailAbove(2): got %v, want %v", got, want)
	}
	if got, want := v.TailAbove(4), 1.0/7; math.Abs(got-want) > 1e-15 {
		t.Fatalf("TailAbove(4): got %v, want %v", got, want)
	}
	// Tail above an interior point over-counts conservatively (whole
	// containing bucket stays in the tail).
	if got, want := v.TailAbove(1.2), 5.0/7; math.Abs(got-want) > 1e-15 {
		t.Fatalf("TailAbove(1.2): got %v, want %v", got, want)
	}
	// Threshold above every bound: only the unresolvable overflow bucket
	// remains in the tail.
	if got := v.TailAbove(100); got != 1.0/7 {
		t.Fatalf("TailAbove(100): got %v, want %v", got, 1.0/7)
	}

	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds should fail")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds should fail")
	}
	if _, err := NewHistogram([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("infinite bound should fail")
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h.Observe(1) // all in bucket 0
	}
	h.Observe(3)
	h.Observe(7)
	v := h.SnapshotValues()
	if got, want := v.Sum/float64(v.Count), (8.0+3+7)/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean: got %v, want %v", got, want)
	}
	if got := v.Quantile(0.5); got != 1 {
		t.Fatalf("q50: got %v, want 1", got)
	}
	if got := v.Quantile(0.9); got != 4 {
		t.Fatalf("q90: got %v, want 4", got)
	}
	if got := v.Quantile(1); got != 8 {
		t.Fatalf("q100: got %v, want 8", got)
	}
}

// TestQuantileEdgeCases pins the Quantile contract at its corners: empty
// histograms, ranks landing exactly on a cumulative bucket boundary,
// q = 0/1, out-of-range q clamping, and overflow-bucket hits reporting
// the largest finite bound.
func TestQuantileEdgeCases(t *testing.T) {
	empty, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.SnapshotValues().Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v): got %v, want 0", q, got)
		}
	}

	h, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2 in (.,1], 2 in (1,2], leaving (2,4] and overflow empty.
	h.Observe(0.5)
	h.Observe(1)
	h.Observe(1.5)
	h.Observe(2)
	v := h.SnapshotValues()
	// q=0.5 → target rank 2, exactly the cumulative count of bucket 0.
	if got := v.Quantile(0.5); got != 1 {
		t.Fatalf("boundary q=0.5: got %v, want 1", got)
	}
	// Just past the boundary the next bucket answers.
	if got := v.Quantile(0.51); got != 2 {
		t.Fatalf("q=0.51: got %v, want 2", got)
	}
	// q=0 clamps to the first populated rank; q<0 and q>1 clamp too.
	if got := v.Quantile(0); got != 1 {
		t.Fatalf("q=0: got %v, want 1", got)
	}
	if got := v.Quantile(-3); got != 1 {
		t.Fatalf("q=-3: got %v, want 1", got)
	}
	if got := v.Quantile(1); got != 2 {
		t.Fatalf("q=1: got %v, want 2 (largest populated bound)", got)
	}
	if got := v.Quantile(7); got != 2 {
		t.Fatalf("q=7: got %v, want 2 (clamped to 1)", got)
	}

	// Overflow-bucket observations report the largest finite bound.
	h.Observe(100)
	if got := h.SnapshotValues().Quantile(1); got != 4 {
		t.Fatalf("q=1 with overflow: got %v, want 4", got)
	}
}

func TestHistogramObserveN(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h.ObserveN(1.5, 3)
	h.ObserveN(1.5, 0)  // ignored
	h.ObserveN(1.5, -2) // ignored
	v := h.SnapshotValues()
	if v.Count != 3 {
		t.Fatalf("count: got %d, want 3", v.Count)
	}
	if v.Counts[1] != 3 {
		t.Fatalf("bucket (1,2]: got %d, want 3", v.Counts[1])
	}
	if math.Abs(v.Sum-4.5) > 1e-12 {
		t.Fatalf("sum: got %v, want 4.5", v.Sum)
	}
}

func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	peak := reg.Gauge("peak", "")
	h, err := reg.Histogram("h", "", []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				peak.SetMax(float64(w*iters + i))
				h.Observe(float64(i%5) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter: got %d, want %d", got, workers*iters)
	}
	if got, want := peak.Value(), float64(workers*iters-1); got != want {
		t.Fatalf("peak: got %v, want %v", got, want)
	}
	v := h.SnapshotValues()
	if v.Count != workers*iters {
		t.Fatalf("histogram count: got %d, want %d", v.Count, workers*iters)
	}
	var fromBuckets int64
	for _, n := range v.Counts {
		fromBuckets += n
	}
	if fromBuckets != v.Count {
		t.Fatalf("bucket sum %d != count %d", fromBuckets, v.Count)
	}
}

func TestSnapshotImmutability(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help", L("k", "v"))
	h, err := reg.Histogram("h", "", []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Add(3)
	h.Observe(1.5)
	snap := reg.Snapshot()

	// Later metric writes must not show up in the old snapshot.
	c.Add(10)
	h.Observe(0.5)
	if got, _ := snap.Counter("c_total", L("k", "v")); got != 3 {
		t.Fatalf("snapshot counter mutated: got %d, want 3", got)
	}
	hp, ok := snap.Histogram("h")
	if !ok || hp.Count != 1 {
		t.Fatalf("snapshot histogram mutated: %+v", hp)
	}

	// Mutating the snapshot's slices must not corrupt live state.
	hp.Counts[0] = 999
	hp.Bounds[0] = -1
	snap.Counters[0].Value = 999
	fresh := reg.Snapshot()
	if got, _ := fresh.Counter("c_total", L("k", "v")); got != 13 {
		t.Fatalf("live counter corrupted: got %d, want 13", got)
	}
	fh, _ := fresh.Histogram("h")
	if fh.Bounds[0] != 1 || fh.Counts[0] != 1 {
		t.Fatalf("live histogram corrupted: %+v", fh)
	}
}

func TestRegistryReuseAndValidation(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same", "")
	b := reg.Counter("same", "")
	if a != b {
		t.Fatal("re-registering the same series should return the same counter")
	}
	if reg.Counter("same", "", L("disk", "0")) == a {
		t.Fatal("different labels must be a different series")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind conflict should panic")
			}
		}()
		reg.Gauge("same", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid name should panic")
			}
		}()
		reg.Counter("0bad name", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reserved le label should panic")
			}
		}()
		reg.Counter("ok", "", L("le", "1"))
	}()
}
