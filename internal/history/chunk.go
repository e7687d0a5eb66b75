package history

import (
	"math"
	"math/bits"
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
// a ring of words addressed by free-running positions, as a histogram's log
// is (position p lives at words[p%len(words)], len(words) a power of two,
// positions wrap with uint32). ends[c] is the position one past the newest
// sealed copy of chunk c; a chunk's copy starts where the copy sealed
// before it ends, the oldest retained one at tail, and head is where the
// next begins.
type sealedRing struct {
	words      []uint64
	ends       []uint32
	head, tail uint32
}

// newSealedRing returns an empty ring for a fine ring of chunks chunks, with
// room for one lap of chunks that hold still and the first that moves.
func newSealedRing(chunks int) sealedRing {
	return sealedRing{
		words: make([]uint64, 1<<bits.Len(uint(2*chunks))),
		ends:  make([]uint32, chunks),
	}
}

// seal appends the encoding of vals as chunk c. relap releases the copy of
// c sealed a lap before, the oldest the ring retains, first: the open chunk
// has overwritten all of it. Grows the ring, by doubling, only when what it
// retains and the new copy do not fit.
func (r *sealedRing) seal(c int, vals []float64, relap bool, enc *chunkWords) {
	if relap {
		r.tail = r.ends[c]
	}
	nw := encode(enc, vals)
	for int(r.head-r.tail)+nw > len(r.words) {
		words := make([]uint64, 2*len(r.words))
		for p := r.tail; p != r.head; p++ {
			words[p&uint32(len(words)-1)] = r.words[p&uint32(len(r.words)-1)]
		}
		r.words = words
	}
	mask := uint32(len(r.words) - 1)
	for _, w := range enc[:nw] {
		r.words[r.head&mask] = w
		r.head++
	}
	r.ends[c] = r.head
}

// read decodes the copy of a chunk sealed from position start to end into
// vals, through w.
func (r *sealedRing) read(vals []float64, start, end uint32, w *chunkWords) {
	mask := uint32(len(r.words) - 1)
	n := int(end - start)
	for i := range n {
		w[i] = r.words[(start+uint32(i))&mask]
	}
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
