package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestFloatCounterMonotone(t *testing.T) {
	var c FloatCounter
	c.Add(1.5)
	c.Add(0.25)
	c.Add(-3)         // ignored: counters only go up
	c.Add(0)          // ignored
	c.Add(math.NaN()) // ignored (NaN fails the v > 0 guard)
	if got := c.Value(); got != 1.75 {
		t.Errorf("Value = %v, want 1.75", got)
	}
}

func TestFloatCounterConcurrent(t *testing.T) {
	var c FloatCounter
	const workers, adds = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(workers*adds)*0.5; math.Abs(got-want) > 1e-6 {
		t.Errorf("Value = %v, want %v", got, want)
	}
}

func TestFloatCounterRegistryAndExposition(t *testing.T) {
	reg := NewRegistry()
	fc := reg.FloatCounter("mz_phase_seconds_total", "Accumulated seconds.", L("phase", "seek"))
	fc.Add(2.5)

	// Re-registration returns the same series.
	if again := reg.FloatCounter("mz_phase_seconds_total", "", L("phase", "seek")); again != fc {
		t.Error("re-registration returned a different FloatCounter")
	}

	snap := reg.Snapshot()
	if v, ok := snap.FloatCounter("mz_phase_seconds_total", L("phase", "seek")); !ok || v != 2.5 {
		t.Errorf("snapshot float counter = (%v, %v), want (2.5, true)", v, ok)
	}
	if _, ok := snap.FloatCounter("mz_phase_seconds_total", L("phase", "transfer")); ok {
		t.Error("lookup with wrong labels should miss")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "# TYPE mz_phase_seconds_total counter") {
		t.Errorf("exposition lacks counter TYPE header:\n%s", text)
	}
	if !strings.Contains(text, `mz_phase_seconds_total{phase="seek"} 2.5`) {
		t.Errorf("exposition lacks float counter sample:\n%s", text)
	}
}

func TestFloatCounterKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("mz_conflicted", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a gauge as a float counter should panic")
		}
	}()
	reg.FloatCounter("mz_conflicted", "")
}
