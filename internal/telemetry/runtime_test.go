package telemetry

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
)

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	RegisterRuntimeMetrics(reg) // idempotent: same series, one hook

	// Allocate a little so the heap gauge has something to report.
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 1024)
	}
	runtime.KeepAlive(sink)

	snap := reg.Snapshot()
	if v, ok := gaugeValue(snap, "mzqos_go_goroutines"); !ok || v < 1 {
		t.Fatalf("goroutines gauge: got %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := gaugeValue(snap, "mzqos_go_heap_bytes"); !ok || v <= 0 {
		t.Fatalf("heap gauge: got %v (ok=%v), want > 0", v, ok)
	}
	if _, ok := snap.Histogram("mzqos_go_gc_pause_seconds"); !ok {
		t.Fatal("GC pause histogram not registered")
	}

	// Force a GC and verify the pause histogram folds the delta without
	// double counting: two consecutive scrapes must not shrink or jump by
	// more pauses than actually happened.
	runtime.GC()
	h1, _ := reg.Snapshot().Histogram("mzqos_go_gc_pause_seconds")
	h2, _ := reg.Snapshot().Histogram("mzqos_go_gc_pause_seconds")
	if h2.Count < h1.Count {
		t.Fatalf("pause count went backwards: %d -> %d", h1.Count, h2.Count)
	}
	if h1.Count == 0 {
		t.Fatal("no GC pauses folded after runtime.GC()")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"mzqos_go_goroutines", "mzqos_go_heap_bytes", "mzqos_go_gc_pause_seconds_bucket"} {
		if !strings.Contains(b.String(), series) {
			t.Fatalf("exposition missing %s:\n%s", series, b.String())
		}
	}
}

// TestRuntimeMetricsConcurrentScrapes exercises the runtime hook from
// several goroutines at once — Prometheus hitting /metrics while a debug
// bundle snapshots — and relies on -race to catch unsynchronized access
// to the hook's shared samples/prevPauses state. It also checks that
// overlapping scrapes never fold a GC-pause delta twice: the histogram
// count must not exceed the cumulative runtime total.
func TestRuntimeMetricsConcurrentScrapes(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if i%2 == 0 {
					reg.Snapshot()
				} else {
					var b strings.Builder
					_ = reg.WritePrometheus(&b)
				}
				if j%5 == 0 {
					runtime.GC()
				}
			}
		}(i)
	}
	wg.Wait()

	h, ok := reg.Snapshot().Histogram("mzqos_go_gc_pause_seconds")
	if !ok {
		t.Fatal("GC pause histogram not registered")
	}
	var total uint64
	for _, s := range []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"} {
		sample := []metrics.Sample{{Name: s}}
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
			for _, c := range sample[0].Value.Float64Histogram().Counts {
				total += c
			}
			break
		}
	}
	if uint64(h.Count) > total {
		t.Fatalf("pause deltas double-folded: histogram has %d, runtime cumulative is %d", h.Count, total)
	}
}

func TestOnScrapeHooks(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("hooked", "")
	calls := 0
	reg.OnScrapeOnce("hooked", func() { calls++; g.Set(float64(calls)) })
	reg.OnScrapeOnce("k", func() {})
	reg.OnScrapeOnce("k", func() { t.Fatal("dedup key re-registered") })

	if v, _ := gaugeValue(reg.Snapshot(), "hooked"); v != 1 {
		t.Fatalf("first scrape: got %v, want 1", v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2", calls)
	}
}
