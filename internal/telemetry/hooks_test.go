package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOnScrapeOnceConcurrentDedup races many registrants of the same
// dedup keys against concurrent scrapes: whatever interleaving wins,
// each key must end up with exactly one installed hook. Run with -race.
func TestOnScrapeOnceConcurrentDedup(t *testing.T) {
	reg := NewRegistry()
	const keys = 8
	var runs [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				k := k
				reg.OnScrapeOnce(fmt.Sprintf("key-%d", k), func() { runs[k].Add(1) })
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()

	// One quiescent scrape: every key's hook fires exactly once, no
	// matter how many goroutines tried to register it.
	var before [keys]int64
	for k := range before {
		before[k] = runs[k].Load()
	}
	reg.Snapshot()
	for k := range runs {
		if got := runs[k].Load() - before[k]; got != 1 {
			t.Errorf("key-%d hook ran %d times per scrape, want 1 (dedup failed)", k, got)
		}
	}
}

// TestScrapeHookOrderStable asserts hooks run in registration order and
// that the order is stable from scrape to scrape.
func TestScrapeHookOrderStable(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	var order []int
	const n = 16
	for i := 0; i < n; i++ {
		i := i
		reg.OnScrapeOnce(fmt.Sprintf("h-%d", i), func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	check := func(pass string) {
		t.Helper()
		mu.Lock()
		got := append([]int(nil), order...)
		order = order[:0]
		mu.Unlock()
		if len(got) != n {
			t.Fatalf("%s: %d hooks ran, want %d", pass, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%s: hook order %v, want registration order", pass, got)
			}
		}
	}
	reg.Snapshot()
	check("first scrape")
	reg.Snapshot()
	check("second scrape")

	// Registration while a scrape runs must not corrupt the order of the
	// already-installed prefix (a scrape takes the installed hooks under the
	// lock, and registration only appends).
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			reg.Snapshot()
		}
	}()
	go func() {
		defer wg.Done()
		for i := n; i < n+50; i++ {
			i := i
			reg.OnScrapeOnce(fmt.Sprintf("h-%d", i), func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
	}()
	wg.Wait()
	mu.Lock()
	order = order[:0]
	mu.Unlock()
	reg.Snapshot()
	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	if len(got) != n+50 {
		t.Fatalf("final scrape ran %d hooks, want %d", len(got), n+50)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("final hook order %v, want registration order", got)
		}
	}
}
