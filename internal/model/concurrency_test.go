package model

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentBounds hammers the memoized bound cache from many
// goroutines; run with -race to validate the locking.
func TestConcurrentBounds(t *testing.T) {
	m := paperMultiZoneModel(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n <= 30; n++ {
				if _, err := m.LateBound(n); err != nil {
					errs <- err
					return
				}
			}
			if _, err := m.GlitchBound(25 + w%5); err != nil {
				errs <- err
				return
			}
			if _, err := m.StreamErrorBound(28, 1200, 12); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentAdmissionStress hammers the full admission surface —
// LateBound, GlitchBound, NMaxFor, BuildTable, GSSSweep — from many
// goroutines on one shared Model and requires every result to be
// bit-identical to a serial run on a fresh Model. This works because chain
// values are a pure function of the model (each warm start is seeded by
// the predecessor's θ, regardless of which caller extends the chain).
// Run with -race to validate the copy-on-write publication.
func TestConcurrentAdmissionStress(t *testing.T) {
	grid := admissionTestGrid()
	gssGroups := []int{1, 2, 3, 4, 6}

	serial := paperMultiZoneModel(t)
	wantLate := make([]float64, 41)
	wantGlitch := make([]float64, 41)
	for n := 1; n <= 40; n++ {
		var err error
		if wantLate[n], err = serial.LateBound(n); err != nil {
			t.Fatal(err)
		}
		if wantGlitch[n], err = serial.GlitchBound(n); err != nil {
			t.Fatal(err)
		}
	}
	wantNMax := make([]int, len(grid))
	for i, g := range grid {
		n, err := serial.NMaxFor(g)
		if err != nil {
			t.Fatal(err)
		}
		wantNMax[i] = n
	}
	wantTable, err := BuildTable(serial, grid)
	if err != nil {
		t.Fatal(err)
	}
	wantSweep, err := serial.GSSSweep(gssGroups, 0.01)
	if err != nil {
		t.Fatal(err)
	}

	shared := paperMultiZoneModel(t)
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	fail := func(format string, args ...any) {
		errs <- fmt.Errorf(format, args...)
	}
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 4 {
			case 0: // bound readers, descending to fight the chain growth
				for n := 40; n >= 1; n-- {
					v, err := shared.LateBound(n)
					if err != nil {
						fail("LateBound(%d): %v", n, err)
						return
					}
					if v != wantLate[n] {
						fail("LateBound(%d): concurrent %v != serial %v", n, v, wantLate[n])
						return
					}
				}
			case 1: // glitch readers
				for n := 1 + w%3; n <= 40; n += 3 {
					v, err := shared.GlitchBound(n)
					if err != nil {
						fail("GlitchBound(%d): %v", n, err)
						return
					}
					if v != wantGlitch[n] {
						fail("GlitchBound(%d): concurrent %v != serial %v", n, v, wantGlitch[n])
						return
					}
				}
			case 2: // admission searches
				for i, g := range grid {
					n, err := shared.NMaxFor(g)
					if err != nil {
						fail("NMaxFor(%v): %v", g, err)
						return
					}
					if n != wantNMax[i] {
						fail("NMaxFor(%v): concurrent %d != serial %d", g, n, wantNMax[i])
						return
					}
				}
			case 3: // whole-table builds and GSS sweeps
				tbl, err := BuildTable(shared, grid)
				if err != nil {
					fail("BuildTable: %v", err)
					return
				}
				if got, want := tbl.Entries(), wantTable.Entries(); !slices.Equal(got, want) {
					fail("BuildTable: concurrent %v != serial %v", got, want)
					return
				}
				sweep, err := shared.GSSSweep(gssGroups, 0.01)
				if err != nil {
					fail("GSSSweep: %v", err)
					return
				}
				if !slices.Equal(sweep, wantSweep) {
					fail("GSSSweep: concurrent %v != serial %v", sweep, wantSweep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentBoundsConsistent verifies concurrent and serial paths
// produce identical values.
func TestConcurrentBoundsConsistent(t *testing.T) {
	serial := paperMultiZoneModel(t)
	want := make([]float64, 31)
	for n := 1; n <= 30; n++ {
		v, err := serial.LateBound(n)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = v
	}
	concurrent := paperMultiZoneModel(t)
	var wg sync.WaitGroup
	got := make([]float64, 31)
	for n := 1; n <= 30; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			v, err := concurrent.LateBound(n)
			if err == nil {
				got[n] = v
			}
		}(n)
	}
	wg.Wait()
	for n := 1; n <= 30; n++ {
		if got[n] != want[n] {
			t.Errorf("N=%d: concurrent %v != serial %v", n, got[n], want[n])
		}
	}
}

// TestChainExtensionKeepsSnapshots: a reader holding a chain snapshot sees
// every entry below its length stay bit-identical while another goroutine
// extends the chain — once within the backing arrays' capacity, where the
// extension writes into the very arrays the reader holds, and once across
// a reallocation. Run with -race: the writer only appends past the
// published length, which no holder of an older snapshot indexes.
func TestChainExtensionKeepsSnapshots(t *testing.T) {
	m := paperMultiZoneModel(t)
	held, err := m.ensureChain(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		target func(c *lateChain) int
		shared bool
	}{
		{"within capacity", func(c *lateChain) int { return min(cap(c.res), cap(c.prefix)) - 1 }, true},
		{"across a reallocation", func(c *lateChain) int { return max(cap(c.res), cap(c.prefix)) + 8 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.target(held)
			if n < len(held.res) {
				t.Fatalf("snapshot of length %d has no spare capacity", len(held.res))
			}
			wantRes := slices.Clone(held.res)
			wantPrefix := slices.Clone(held.prefix)
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					for k := range wantRes {
						if held.res[k] != wantRes[k] || math.Float64bits(held.prefix[k]) != math.Float64bits(wantPrefix[k]) {
							t.Errorf("entry %d moved under its reader: %+v, %v -> %+v, %v", k, wantRes[k], wantPrefix[k], held.res[k], held.prefix[k])
							return
						}
					}
				}
			}()
			next, err := m.ensureChain(n)
			stop.Store(true)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(next.res) != n+1 {
				t.Fatalf("extended chain has length %d, want %d", len(next.res), n+1)
			}
			if shared := &next.res[0] == &held.res[0] && &next.prefix[0] == &held.prefix[0]; shared != tc.shared {
				t.Errorf("extension shares the held arrays: %v, want %v", shared, tc.shared)
			}
			held = next
		})
	}
}
