package ring

import (
	"math/rand/v2"
	"testing"
)

// TestBufferMatchesSliceModel pushes random counts clustered around the
// wrap boundaries and compares every read with a plain slice that keeps
// everything.
func TestBufferMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		counts := []int{0, 1, capacity - 1, capacity, capacity + 1, 2 * capacity, 3 * capacity, 3*capacity + 1}
		for i := 0; i < 8; i++ {
			counts = append(counts, rng.IntN(4*capacity+1))
		}
		for _, n := range counts {
			b := New[int](capacity)
			var model []int
			for v := 0; v < n; v++ {
				*b.Next() = v
				model = append(model, v)
			}
			want := model[max(0, n-capacity):]
			if b.Cap() != capacity || b.Len() != len(want) || b.Pushed() != uint64(n) {
				t.Fatalf("cap %d after %d pushes: Cap %d Len %d Pushed %d, want %d %d %d",
					capacity, n, b.Cap(), b.Len(), b.Pushed(), capacity, len(want), n)
			}
			if dropped := b.Pushed() - uint64(b.Len()); dropped != uint64(n-len(want)) {
				t.Fatalf("cap %d after %d pushes: Pushed-Len = %d, want %d overwritten", capacity, n, dropped, n-len(want))
			}
			for i, w := range want {
				if got := *b.At(i); got != w {
					t.Fatalf("cap %d after %d pushes: At(%d) = %d, want %d", capacity, n, i, got, w)
				}
			}
		}
	}
}

// TestNextHandsOutTheEvictedSlot is the contract trace.Record relies on
// to copy into the evicted span's record buffer: the slot Next returns
// still holds the element it is about to overwrite, which is the oldest
// one.
func TestNextHandsOutTheEvictedSlot(t *testing.T) {
	b := New[[]byte](3)
	for i := 0; i < 3; i++ {
		slot := b.Next()
		if *slot != nil {
			t.Fatalf("first lap, push %d: slot holds %v, want the zero value", i, *slot)
		}
		*slot = make([]byte, 0, 10+i)
	}
	for i := 0; i < 7; i++ {
		oldest := *b.At(0)
		slot := b.Next()
		if cap(*slot) != cap(oldest) {
			t.Fatalf("push %d after wrap: slot holds cap %d, oldest had cap %d", i, cap(*slot), cap(oldest))
		}
		*slot = (*slot)[:0] // the salvaged buffer goes round again
	}
}

func TestCapacityClampsToOne(t *testing.T) {
	for _, c := range []int{0, -5} {
		b := New[int](c)
		*b.Next() = 1
		*b.Next() = 2
		if b.Cap() != 1 || b.Len() != 1 || *b.At(0) != 2 || b.Pushed() != 2 {
			t.Fatalf("New(%d): Cap %d Len %d At(0) %d Pushed %d", c, b.Cap(), b.Len(), *b.At(0), b.Pushed())
		}
	}
}

func TestNoAllocs(t *testing.T) {
	b := New[[4]int](8)
	if n := testing.AllocsPerRun(100, func() { b.Next()[0]++ }); n != 0 {
		t.Errorf("Buffer.Next allocates %v per call", n)
	}
}
