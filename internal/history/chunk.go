package history

import (
	"math"
	"math/bits"
	"slices"
)

// chunk is how many consecutive fine slots seal together. A wake group keeps
// the chunk its newest slot is in raw, and each column's other retained
// chunks XOR-encoded in the column's word ring. A power of two and a
// multiple of tile, so a slot's chunk and its offset in it are a shift and
// a mask, and the raw block is whole tiles. A retention that is not a
// multiple of it ends on a shorter chunk.
const chunk = 64

// maxChunkWords bounds one sealed chunk: the first value's 64 bits, then per
// value at most 2 control bits, 6 of leading zeros, 6 of length and 64 of
// XOR.
const maxChunkWords = (64 + (chunk-1)*78 + 63) / 64

// chunkWords holds one chunk's encoding while it is sealed or read, and the
// zero word a read looks ahead into past it.
type chunkWords [maxChunkWords + 1]uint64

// sealedRing is one column's sealed chunks, in the order they were sealed:
// a ring of words addressed by physical positions, which wrap at
// len(words). ends[c] is the position one past the newest sealed copy of
// chunk c; a chunk's copy starts where the copy sealed before it ends, the
// oldest retained one at tail, and head is where the next begins. At least
// one word is always free, so head is tail only when nothing is retained,
// and a copy's words run from its start up to its end, across the end of
// words when its end is below its start.
type sealedRing struct {
	words      []uint64
	ends       []uint32
	head, tail uint32
}

// room returns the ring length that holds n retained words: n plus an
// eighth, and the one word that is always free.
func room(n int) int { return n + n/8 + 1 }

// newSealedRing returns an empty ring for a tier of chunks chunks, with room
// for the copies of held chunks that hold still, two words each, and the
// next one's: a series that wakes young starts with a small ring, which
// regrows as its chunks seal.
func newSealedRing(chunks, held int) sealedRing {
	return sealedRing{
		words: make([]uint64, room(2*min(held+1, chunks))),
		ends:  make([]uint32, chunks),
	}
}

// used returns how many words the ring retains, tail to head.
func (r *sealedRing) used() int {
	n := int(r.head) - int(r.tail)
	if n < 0 {
		n += len(r.words)
	}
	return n
}

// seal appends the encoding of vals as chunk c. relap releases the copy of
// c sealed a lap before, the oldest the ring retains, first: the open chunk
// has overwritten all of it. Grows the ring to what it retains and the new
// copy need, plus an eighth, only when they do not fit.
func (r *sealedRing) seal(c int, vals []float64, relap bool, enc *chunkWords) {
	if relap {
		r.tail = r.ends[c]
	}
	nw := encode(enc, vals)
	if need := r.used() + nw; need >= len(r.words) {
		r.regrow(need)
	}
	h := int(r.head)
	wrapped := copy(r.words[h:], enc[:nw])
	copy(r.words, enc[wrapped:nw])
	r.head = uint32((h + nw) % len(r.words))
	r.ends[c] = r.head
}

// regrow moves the retained words, in the same order, to the start of a
// ring of room(need) words and as many more as the allocation's size class
// has room for, and re-bases every position on that: tail moves to 0 and
// each retained copy's end by the same distance. The end of a copy already
// released, or of a chunk not sealed yet, is never read before the chunk's
// next seal rewrites it.
func (r *sealedRing) regrow(need int) {
	words := slices.Grow([]uint64(nil), room(need))
	words = words[:cap(words)]
	n := r.used()
	t := int(r.tail)
	first := copy(words[:n], r.words[t:])
	copy(words[first:n], r.words)
	for c, e := range r.ends {
		off := int(e) - t
		if off < 0 {
			off += len(r.words)
		}
		r.ends[c] = uint32(off)
	}
	r.words, r.tail, r.head = words, 0, uint32(n)
}

// read decodes the copy of a chunk sealed from position start to end into
// vals, through w: the words up to the physical end, then any from the
// start of the ring.
func (r *sealedRing) read(vals []float64, start, end uint32, w *chunkWords) {
	n := int(end) - int(start)
	if n < 0 {
		n += len(r.words)
	}
	first := copy(w[:n], r.words[start:])
	copy(w[first:n], r.words)
	w[n] = 0
	decode(vals, w)
}

// bitWriter packs bit fields into words, first bit at the top.
type bitWriter struct {
	w   *chunkWords
	nw  int
	acc uint64 // pending bits, first at the top
	n   uint   // how many
}

// put appends the low width bits of x (1 ≤ width ≤ 64, no bits above).
func (b *bitWriter) put(x uint64, width uint) {
	free := 64 - b.n
	if width < free {
		b.acc |= x << (free - width)
		b.n += width
		return
	}
	b.w[b.nw] = b.acc | x>>(width-free)
	b.nw++
	b.n = width - free
	b.acc = x << (64 - b.n) // 0 when b.n is 0: Go shifts a uint64 by 64 to 0
}

// encode writes the Gorilla XOR encoding (Pelkonen et al., VLDB 2015) of
// vals, 1 to chunk values, into w and returns how many words it filled:
// the first value's bits, then per value a 0 bit when its bits repeat the
// value before, else a 1 and the XOR of the two — a 0 and the XOR's bits
// inside the window of leading and trailing zeros the last written window
// opened, when the XOR has no bit outside it, or a 1, a new window (6 bits
// of leading zeros, 6 of width less one) and the bits inside it.
func encode(w *chunkWords, vals []float64) int {
	b := bitWriter{w: w}
	prev := math.Float64bits(vals[0])
	b.put(prev, 64)
	var win uint64 // the window's bits; none before the first XOR
	var trail, width uint
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		switch {
		case x == 0:
			b.put(0, 1)
		case x&^win == 0 && width <= 62:
			b.put(0b10<<width|x>>trail, 2+width)
		case x&^win == 0:
			b.put(0b10, 2)
			b.put(x>>trail, width)
		default:
			lz, tz := uint(bits.LeadingZeros64(x)), uint(bits.TrailingZeros64(x))
			trail, width = tz, 64-lz-tz
			win = ^uint64(0) >> lz &^ (1<<tz - 1)
			if head := 0b11<<12 | uint64(lz)<<6 | uint64(width-1); width <= 50 {
				b.put(head<<width|x>>tz, 14+width)
			} else {
				b.put(head, 14)
				b.put(x>>tz, width)
			}
		}
	}
	if b.n > 0 {
		b.w[b.nw] = b.acc
		b.nw++
	}
	return b.nw
}

// peek returns the 64 bits of w from bit position pos on, first at the top;
// bits past the last word read as zeros.
func peek(w *chunkWords, pos uint) uint64 {
	i, off := pos/64, pos%64
	return w[i]<<off | w[i+1]>>(64-off) // Go shifts a uint64 by 64 to 0
}

// decode fills vals with the values of the chunk encoded in w, whose next
// word past the encoding is zero.
func decode(vals []float64, w *chunkWords) {
	cur := w[0]
	vals[0] = math.Float64frombits(cur)
	pos, lead, width := uint(64), uint(0), uint(0)
	for i := 1; i < len(vals); i++ {
		switch b := peek(w, pos); {
		case b>>63 == 0:
			pos++
		case b>>62 == 0b10:
			cur ^= peek(w, pos+2) >> (64 - width) << (64 - lead - width)
			pos += 2 + width
		default:
			lead, width = uint(b>>56&63), uint(b>>50&63)+1
			cur ^= peek(w, pos+14) >> (64 - width) << (64 - lead - width)
			pos += 14 + width
		}
		vals[i] = math.Float64frombits(cur)
	}
}
