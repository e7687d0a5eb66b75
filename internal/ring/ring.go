// Package ring is the one bounded retention buffer of the repository:
// "keep the last K of something, overwrite the oldest". Every observability
// store that answers a question about a recent interval — trace spans,
// journal events, retired ledger records — holds its elements in a Buffer,
// so "oldest first after the buffer has wrapped" and "how many were
// dropped" are decided here once. A store read by key only
// on a cold path (the ledger's retired records, which a server's Stats
// looks up by shard and id) scans its Buffer, so a push hashes nothing.
//
// A Buffer is not synchronized: each owner guards it with the lock it
// already holds around the write. Nothing allocates after construction.
package ring

// Buffer is a fixed-capacity ring that overwrites its oldest element once
// full. The zero value has no capacity; build one with New.
type Buffer[T any] struct {
	buf    []T
	next   int    // slot the next push writes
	pushed uint64 // lifetime pushes
}

// New returns a Buffer retaining the last capacity elements (minimum 1).
func New[T any](capacity int) Buffer[T] {
	if capacity < 1 {
		capacity = 1
	}
	return Buffer[T]{buf: make([]T, capacity)}
}

// Next pushes one element and returns its slot for the caller to fill.
// The slot still holds what it held before: the zero value during the
// first lap, afterwards the oldest element, which this push overwrites —
// so a caller can salvage the evicted element's buffers before writing.
func (b *Buffer[T]) Next() *T {
	slot := &b.buf[b.next]
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
	}
	b.pushed++
	return slot
}

// Cap returns the capacity.
func (b *Buffer[T]) Cap() int { return len(b.buf) }

// Pushed returns the lifetime push count; Pushed − Len elements have been
// overwritten.
func (b *Buffer[T]) Pushed() uint64 { return b.pushed }

// Len returns the number of retained elements.
func (b *Buffer[T]) Len() int {
	if b.pushed < uint64(len(b.buf)) {
		return int(b.pushed)
	}
	return len(b.buf)
}

// At returns the i-th retained element, oldest first (0 ≤ i < Len).
func (b *Buffer[T]) At(i int) *T {
	if b.pushed >= uint64(len(b.buf)) { // full: the oldest sits at the write cursor
		i += b.next
		if i >= len(b.buf) {
			i -= len(b.buf)
		}
	}
	return &b.buf[i]
}
