// Package history is the repository's embedded time-series store: a
// bounded, zero-steady-state-allocation recorder that samples every
// series of a telemetry Registry once per scheduling round and keeps the
// trajectory queryable in process — the paper's guarantee is a process
// over time windows (P[T_N > t] audited against b_late round after
// round), and this package lets the repo show its own guarantee as a
// time series without an external Prometheus.
//
// Storage is per cohort and, within a cohort, per wake group. The series
// attached by one registry enumeration — the ones registered before New,
// everything else on the first Sample, late registrations after — are
// sampled at exactly the same rounds, so a cohort shares one round column,
// one column of block starts and one ring cursor per tier across all its
// series. What a series stores of its own depends on whether it has moved:
//
//   - a series attaches at rest: it holds the one value it read then and no
//     column. Each Sample reads it and compares the bits with the value held
//     (the bits, so NaN equals itself and -0 is not 0); while they agree,
//     every retained sample and every coarse envelope of the series is that
//     value, and saying so takes one tile of each, not a ring. The counters
//     of things that do not happen to a healthy server and the quantities
//     the model solves once per configuration (N_max, both bounds, the SLO
//     budgets) spend the whole run here;
//   - the series of a cohort whose values first differ in the same Sample
//     wake together into one group. The fine ring, of configurable
//     retention (DefaultRounds) and one round per slot, is kept by chunks
//     of 64 slots. The group keeps the open chunk, the one the newest slot
//     is in, raw and laid out in tiles — tile consecutive slots of one
//     series adjacent, the tiles of the group's k series side by side — so
//     a Sample writes one strided row into lines that stay hot for several
//     rounds. When the ring moves into the next chunk, every column of the
//     chunk just finished is sealed: XOR-encoded as Gorilla does (Pelkonen
//     et al., VLDB 2015), a value against the one before, so a gauge that
//     holds still costs a bit a sample and a counter a few, into the
//     series' ring of sealed chunks. The copy a chunk had a lap before stays
//     readable, for the slots the open chunk has not reached, until the
//     open chunk seals over it, so every retained sample reads back bit for
//     bit. Beside that, a coarse block of min/max/last envelopes over
//     DefaultCoarseBlock-round blocks in the tiled layout, so queries
//     reaching past the fine retention still resolve envelope and level at
//     block granularity. Both tiers are filled with the value the series
//     rested at, which is what every retained sample read, and then the
//     group takes the sample that woke it like any other. A series never
//     goes back to rest;
//   - per histogram series, a log of bucket increments: one 4-byte entry
//     per bucket that moved between two consecutive samples — a 16-bit
//     bucket and a 16-bit growth, a wider growth split over several
//     entries — and per fine slot the log position its sample's entries
//     end at. Every read of a
//     histogram is a difference — rate() and quantile-over-time (T_N
//     p50/p99/p999 trajectories) over the bucket deltas between two
//     retained samples — and that difference is the entries between the
//     two samples' marks, so a histogram costs what it changed, not a copy
//     of every bucket per sample.
//
// Reads have one path: Query, Dump and TailTrajectory all read through
// evaluate, the one walk over a series, which folds its samples into step
// windows and reduces them; it goes through the series' fineRun and
// coarseRun, which hand out a resting series' tile, a run of the open
// chunk and a sealed chunk, decoded whole as the walk reaches it, as the
// same plain slices. The decoder has that one sequential reader.
//
// The round column and the marks are allocated when a cohort attaches,
// and a log starts at one entry per retained sample — what a histogram
// observed once a round needs, recycled in place as samples leave the fine
// ring. The coarse ring starts at one tile of blocks (or the retention, if
// that is smaller) and grows by an eighth, rounded up to whole tile rows
// and capped at its retention, when a block opens on it full, so a store
// younger than its coarse retention holds the envelopes it has filled, not
// 24 B per series for every block it may ever keep. The tiled layout is
// tile-row-major, so growth appends tile rows and no retained block moves.
// So the per-round Sample hot path allocates nothing once its series'
// rings have stopped growing: a read and a compare per resting series, an atomic read, a tile store and
// an envelope fold per woken one, then per histogram a compare of each live
// bucket with the count last seen, under a single short mutex shared with
// queries, and one round in 64 the seal of every woken column's chunk.
// Four things allocate, each only when it must: a series' first move, which
// allocates its share of its group's open chunk and envelopes (512 B plus
// 24 B per block the coarse ring holds then) and its ring of sealed chunks
// (1.13 KiB, a lap of chunks that hold still and an eighth more, and 256 B
// of chunk marks at the default retention), once per series; the coarse
// ring's growth, which lengthens the cohort's block starts and every
// group's envelopes, 22 times per group on the way to the default
// retention and never once the ring has reached it; a ring of sealed
// chunks whose retained chunks and the one being sealed do not fit, which
// grows to what they need plus an eighth (and what the allocation's size
// class holds beyond that), never shrinks, and stops once the series'
// chunks stop growing; and a log whose retained samples changed more
// buckets than it has entries (bulk folds, every bucket moving every
// sample): it doubles, never shrinks, and stops within the dense size of
// one count per bucket per retained sample.
package history

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"mzqos/internal/telemetry"
)

// Defaults for Config's zero values.
const (
	// DefaultRounds is the fine-ring retention in samples.
	DefaultRounds = 4096
	// DefaultCoarseBlock is the rounds folded into one coarse block.
	DefaultCoarseBlock = 64
	// DefaultCoarseBlocks is the coarse-ring retention in blocks
	// (DefaultCoarseBlock rounds each).
	DefaultCoarseBlocks = 1024
)

// Config assembles a Store.
type Config struct {
	// Registry is the sampled registry. The store enumerates it at
	// construction and re-enumerates whenever new series register (cheap
	// length check per sample), so late registrations — runtime metrics
	// installed at mux construction, say — join the history when they
	// appear.
	Registry *telemetry.Registry
	// Rounds is the fine-ring retention in samples (0 = DefaultRounds).
	Rounds int
	// CoarseBlock is the rounds per coarse min/max/last block
	// (0 = DefaultCoarseBlock).
	CoarseBlock int
	// CoarseBlocks is the coarse-ring retention in blocks
	// (0 = DefaultCoarseBlocks).
	CoarseBlocks int
}

// Store records per-round samples of every registered series. The round
// loop (Server.Step or Coordinator.Step) is its one writer, through Sample;
// every other call only reads, and is safe from any goroutine. A nil
// *Store is valid and inert, so callers thread one through without
// guards.
type Store struct {
	mu       sync.Mutex
	reg      *telemetry.Registry
	capacity int
	block    int64
	blocks   int

	cohorts  []*cohort
	series   []*seriesRec
	byName   map[string][]*seriesRec
	attached int // registry entries enumerated so far

	lastRound int64 // round of the most recent sample, -1 before any
	samples   int64
}

// tile is how many consecutive ring slots of one series sit adjacent in a
// group's tiled blocks (fine values by slot, envelopes by coarse block);
// a power of two, so the index arithmetic is shifts and masks. 1 would be
// plain row-major: the fastest Sample, and a stride of k entries per point
// for every single-series read. Picked by measurement (CHANGES.md, PR 18).
const tile = 16

// cursor is a ring's write position: the next write goes to head, and n of
// the size slots hold entries.
type cursor struct {
	head, n, size int
}

// newest returns the slot written last (meaningful once n > 0).
func (c *cursor) newest() int {
	if c.head == 0 {
		return c.size - 1
	}
	return c.head - 1
}

// push returns the slot the next entry goes to and moves past it.
func (c *cursor) push() int {
	slot := c.head
	if c.head++; c.head == c.size {
		c.head = 0
	}
	if c.n < c.size {
		c.n++
	}
	return slot
}

// run is the accessor every walk over a fine or coarse ring goes through.
// For the k-th oldest retained entry (k = n-1 is the newest) it returns
// the entry's slot and how many entries from it on sit in adjacent slots
// of one tile: up to the end of the tile, of the ring, or of what is
// retained. A walk handles one such run at a time, as plain slices.
func (c *cursor) run(k int) (slot, run int) {
	slot = c.head - c.n + k
	if slot < 0 {
		slot += c.size
	}
	return slot, min(tile-slot%tile, c.size-slot, c.n-k)
}

// envelope is one series' min/max/last over one coarse block.
type envelope struct {
	min, max, last float64
}

// cohort is what the series attached by one registry enumeration share.
// They are sampled at exactly the same rounds, so the round column, the
// block starts and both ring cursors exist once per cohort; the values live
// with the series — one value each for those at rest, a column of a wake
// group for those that have moved.
type cohort struct {
	// srcs are the live handles in attach order; hists the histogram
	// series among them.
	srcs  []telemetry.Series
	hists []*seriesRec

	// Fine ring: rounds[slot] is the round sampled into slot. Its values
	// are kept by chunks of chunk slots, chunks of them; seals counts the
	// chunks sealed so far, so chunk seals%chunks is the open one, the
	// chunk of the newest slot.
	fine   cursor
	rounds []int64
	chunks int
	seals  int

	// Coarse ring: starts[b] is block b's first round. The ring starts at
	// one tile and grows as it fills, up to blocks, the store's retention.
	coarse cursor
	starts []int64
	blocks int

	// resting are the series that have read one value since they attached,
	// in attach order; groups the blocks of those that have read a second,
	// one per sample some series first moved in.
	resting []*rest
	groups  []*group

	// vals and words hold a chunk's values and its encoding while it is
	// sealed or read.
	vals  [chunk]float64
	words chunkWords
}

// rest is a series that has not moved since it attached: the one value it
// has read, laid out as one tile of fine values and one of envelopes so a
// ring walk reads it run by run the way it reads a column. Dropped when the
// series wakes.
type rest struct {
	rec  *seriesRec
	src  *telemetry.Series // rec.src, where Sample's compare finds it beside the value
	vals [tile]float64
	env  [tile]envelope
}

// group is the storage of the k series that first moved in the same
// sample. vals is the open chunk, raw and tiled: the value of column col
// at the chunk's offset o is vals[((o/tile)*k+col)*tile+o%tile]. env holds
// the envelopes the same way with the coarse block index for the offset;
// both are padded to a whole number of tiles. sealed[col] is column col's
// ring of sealed chunks.
type group struct {
	srcs   []*telemetry.Series // live handles in column order
	vals   []float64
	env    []envelope
	sealed []sealedRing
}

// at returns the index of column col at a position in a tiled block: vals
// by offset in the open chunk, env by coarse block.
func (g *group) at(pos, col int) int {
	return ((pos/tile)*len(g.srcs)+col)*tile + pos%tile
}

// logEntry is one bucket's growth between two consecutive samples: the
// bucket in the high 16 bits (telemetry.NewHistogram refuses more than
// telemetry.MaxBuckets), the growth in the low 16. A growth wider than 16
// bits is split over several entries.
type logEntry uint32

// maxDelta is the most growth one entry holds.
const maxDelta = 1<<16 - 1

// bucket returns the entry's bucket.
func (e logEntry) bucket() int { return int(e >> 16) }

// delta returns the entry's growth.
func (e logEntry) delta() int64 { return int64(e & maxDelta) }

// seriesRec is one series: its place in its cohort — at rest, or column col
// of a wake group — plus, for a histogram, the increment log only it needs.
type seriesRec struct {
	id  string
	co  *cohort
	src *telemetry.Series // identity and live handle, in co.srcs

	// Exactly one of rest and grp is set. col is the column in grp; -1 at
	// rest.
	rest *rest
	grp  *group
	col  int

	// Histogram extension, nil for scalar series. last holds the count of
	// every bucket as of the newest sample; log is a ring of what changed
	// from one sample to the next, addressed by free-running positions
	// (position p lives at log[p%len(log)], len(log) a power of two,
	// positions wrap with uint32); ends[slot] is the position one past the
	// entries of the sample at that fine slot, and head the position the
	// next entry takes.
	// The growth of every bucket between two retained samples is the
	// entries in [ends[older], ends[newer]); what precedes the oldest
	// retained sample's mark is free to be overwritten.
	h      *telemetry.Histogram
	bounds []float64
	last   []int64
	ends   []uint32
	log    []logEntry
	head   uint32
}

// New builds a store over cfg.Registry and attaches every currently
// registered series.
func New(cfg Config) *Store {
	st := &Store{
		reg:       cfg.Registry,
		capacity:  cfg.Rounds,
		block:     int64(cfg.CoarseBlock),
		blocks:    cfg.CoarseBlocks,
		byName:    make(map[string][]*seriesRec),
		lastRound: -1,
	}
	if st.capacity <= 0 {
		st.capacity = DefaultRounds
	}
	if st.block <= 0 {
		st.block = DefaultCoarseBlock
	}
	if st.blocks <= 0 {
		st.blocks = DefaultCoarseBlocks
	}
	if st.reg != nil {
		st.mu.Lock()
		st.refreshLocked()
		st.mu.Unlock()
	}
	return st
}

// maybeRefreshLocked re-enumerates the registry when its series count
// moved — a cheap length check on the steady path.
func (st *Store) maybeRefreshLocked() {
	if st.reg != nil && st.reg.NumSeries() != st.attached {
		st.refreshLocked()
	}
}

// refreshLocked attaches the registry entries added since the last
// enumeration as one new cohort, every series at rest at the value it reads
// now. Registration order is append-only, so only the tail is new.
func (st *Store) refreshLocked() {
	all := st.reg.Series()
	srcs := append([]telemetry.Series(nil), all[st.attached:]...)
	st.attached = len(all)
	k := len(srcs)
	if k == 0 {
		return
	}
	co := &cohort{
		srcs:    srcs,
		fine:    cursor{size: st.capacity},
		coarse:  cursor{size: min(tile, st.blocks)},
		rounds:  make([]int64, st.capacity),
		chunks:  (st.capacity + chunk - 1) / chunk,
		starts:  make([]int64, min(tile, st.blocks)),
		blocks:  st.blocks,
		resting: make([]*rest, k),
	}
	for idx := range srcs {
		s := &srcs[idx]
		rec := &seriesRec{id: s.ID(), co: co, src: s, col: -1}
		rec.rest = &rest{rec: rec, src: s}
		rec.rest.fill(s.Read())
		co.resting[idx] = rec.rest
		if h := s.Histogram(); h != nil {
			rec.h = h
			rec.bounds = h.Bounds()
			rec.last = make([]int64, h.NumBuckets())
			rec.ends = make([]uint32, st.capacity)
			rec.log = make([]logEntry, 1<<bits.Len(uint(st.capacity-1)))
			co.hists = append(co.hists, rec)
		}
		st.series = append(st.series, rec)
		st.byName[s.Name] = append(st.byName[s.Name], rec)
	}
	st.cohorts = append(st.cohorts, co)
}

// Sample records one point per attached series at the given round, the
// registry's state at the end of that round. A round at or below the
// newest sampled one is ignored: each point is recorded once. Steady state
// (no new registrations, no series moving for the first time, the coarse
// ring at its retention, no ring of sealed chunks growing) allocates
// nothing.
func (st *Store) Sample(round int) {
	if st == nil {
		return
	}
	r := int64(round)
	st.mu.Lock()
	defer st.mu.Unlock()
	if r <= st.lastRound {
		return
	}
	st.maybeRefreshLocked()
	// The coarse block start depends only on the round, so the division
	// happens once here rather than once per cohort.
	start := r - r%st.block
	for _, co := range st.cohorts {
		co.sample(r, start)
	}
	st.lastRound = r
	st.samples++
}

// fill sets the value the series rests at.
func (r *rest) fill(v float64) {
	for i := range r.vals {
		r.vals[i], r.env[i] = v, envelope{min: v, max: v, last: v}
	}
}

// fineRun returns the run of fine samples starting at the cohort's k-th
// oldest: its first slot, the rounds, and the series' values. A run never
// spans more than a tile of a resting series or of the open chunk, nor more
// than one sealed chunk, which it decodes whole into the cohort's vals.
func (rec *seriesRec) fineRun(k int) (slot int, rounds []int64, vals []float64) {
	co := rec.co
	slot, run := co.fine.run(k)
	if rec.rest != nil {
		return slot, co.rounds[slot : slot+run], rec.rest.vals[:run]
	}
	g := rec.grp
	c, newest := slot/chunk, co.fine.newest()
	if c == newest/chunk && slot <= newest {
		return slot, co.rounds[slot : slot+run], g.vals[g.at(slot%chunk, rec.col):][:run]
	}
	// A sealed chunk, or the part of the open chunk's copy from a lap
	// before that the open chunk has not overwritten yet.
	first := c * chunk
	n := min(chunk, co.fine.size-first)
	run = min(first+n-slot, co.fine.n-k)
	r := &g.sealed[rec.col]
	start := r.tail
	if c != co.oldestSealed() {
		start = r.ends[(c+co.chunks-1)%co.chunks]
	}
	r.read(co.vals[:n], start, r.ends[c], &co.words)
	return slot, co.rounds[slot : slot+run], co.vals[slot-first:][:run]
}

// oldestSealed returns the chunk whose sealed copy is the oldest each
// column retains: chunk 0 on the first lap, the open chunk's copy from a
// lap before after it.
func (co *cohort) oldestSealed() int {
	if co.seals < co.chunks {
		return 0
	}
	return co.seals % co.chunks
}

// coarseRun returns the run of coarse blocks starting at the k-th oldest:
// the start rounds and the series' envelopes.
func (rec *seriesRec) coarseRun(k int) (starts []int64, env []envelope) {
	slot, run := rec.co.coarse.run(k)
	starts = rec.co.starts[slot : slot+run]
	if rec.rest != nil {
		return starts, rec.rest.env[:run]
	}
	return starts, rec.grp.env[rec.grp.at(slot, rec.col):][:run]
}

// sample records one point per series at round r (start is its precomputed
// coarse block start). A resting series is read and compared with the value
// it holds; those that differ wake into one new group. Then every group
// takes the fine row of r's slot and the newest coarse block's envelopes in
// one pass, and the histograms their bucket counts. A round whose block
// start differs from the newest block's opens a block, on a ring grown first
// if it is full and has room to grow. Allocates only in a sample some series
// first moves in or the coarse ring grows in.
func (co *cohort) sample(r, start int64) {
	if co.fine.n > 0 && co.fine.head%chunk == 0 {
		co.seal(co.fine.newest() / chunk)
	}
	slot := co.fine.push()
	co.rounds[slot] = r
	block := co.coarse.newest()
	opened := co.coarse.n == 0 || co.starts[block] != start
	if opened {
		if co.coarse.n == co.coarse.size && co.coarse.size < co.blocks {
			co.grow()
		}
		block = co.coarse.push()
		co.starts[block] = start
	}
	// The bits, not ==: a series resting at NaN must not wake every time it
	// is read, and one that goes from 0 to -0 has moved in what is printed.
	woken := 0
	for _, rs := range co.resting {
		if math.Float64bits(rs.src.Read()) != math.Float64bits(rs.vals[0]) {
			rs.rec.col = woken
			woken++
		}
	}
	if woken > 0 {
		co.wake(woken)
	}
	for _, g := range co.groups {
		env := g.env[g.at(block, 0):]
		row := g.vals[g.at(slot%chunk, 0):]
		for j, src := range g.srcs {
			v := src.Read()
			row[j*tile] = v
			if e := &env[j*tile]; opened {
				*e = envelope{min: v, max: v, last: v}
			} else {
				if v < e.min {
					e.min = v
				}
				if v > e.max {
					e.max = v
				}
				e.last = v
			}
		}
	}
	oldest, _ := co.fine.run(0)
	for _, rec := range co.hists {
		rec.sample(slot, oldest)
	}
}

// wake moves the k resting series that sample has given a column into one
// new group: every slot of the open chunk and every coarse block of a
// column is filled with the value its series rested at, which is what each
// retained sample read, and its ring gets a sealed copy of that value for
// each chunk the cohort has sealed and retains, so the group then takes the
// sample that woke it like any other. The one place value
// blocks are allocated, and envelope blocks at the coarse ring's current
// size (grow lengthens them later): per series at the default retention
// the open chunk's 512 B, a ring of 1.13 KiB and 256 B of chunk marks, plus
// 24 B per block the coarse ring holds, once. A series never goes back to
// rest — a gauge that moved once is expected to move again, and a column
// handed back would only be allocated a second time.
func (co *cohort) wake(k int) {
	g := &group{
		srcs:   make([]*telemetry.Series, k),
		vals:   make([]float64, (min(chunk, co.fine.size)+tile-1)/tile*k*tile),
		env:    make([]envelope, (co.coarse.size+tile-1)/tile*k*tile),
		sealed: make([]sealedRing, k),
	}
	still := co.resting[:0]
	for _, rs := range co.resting {
		rec := rs.rec
		if rec.col < 0 {
			still = append(still, rs)
			continue
		}
		g.srcs[rec.col] = rs.src
		for i := rec.col * tile; i < len(g.vals); i += k * tile {
			copy(g.vals[i:], rs.vals[:])
		}
		for i := rec.col * tile; i < len(g.env); i += k * tile {
			copy(g.env[i:], rs.env[:])
		}
		r := newSealedRing(co.chunks)
		for q := max(co.seals-co.chunks, 0); q < co.seals; q++ {
			c := q % co.chunks
			vals := co.vals[:min(chunk, co.fine.size-c*chunk)]
			for i := range vals {
				vals[i] = rs.vals[0]
			}
			r.seal(c, vals, false, &co.words)
		}
		g.sealed[rec.col] = r
		rec.grp, rec.rest = g, nil
	}
	clear(co.resting[len(still):])
	co.resting = still
	co.groups = append(co.groups, g)
}

// seal encodes every column's values of chunk c, which the newest slot has
// just left and the next push starts overwriting the open block of, into
// the column's ring. From the second lap on, the copy of c sealed a lap
// before is released as the new one goes in. Allocates only when a ring
// must grow.
func (co *cohort) seal(c int) {
	n := min(chunk, co.fine.size-c*chunk)
	relap := co.seals >= co.chunks
	for _, g := range co.groups {
		k := len(g.srcs)
		for col := range g.sealed {
			for o := 0; o < n; o += tile {
				copy(co.vals[o:n], g.vals[((o/tile)*k+col)*tile:][:tile])
			}
			g.sealed[col].seal(c, co.vals[:n], relap, &co.words)
		}
	}
	co.seals++
}

// grow lengthens the coarse ring by an eighth, rounded up to whole tile
// rows and capped at its retention, when a block opens on it full. The ring
// has never wrapped, so its blocks sit oldest first in slots 0 to size-1
// and head is 0. The tiled layout is tile-row-major, so the new slots are
// whole tile rows appended to starts and to every group's envelopes, and
// head moves to the first of them: no retained block moves. Called 22
// times per cohort on the way to the default retention.
func (co *cohort) grow() {
	size := min(co.coarse.size+(co.coarse.size/8+tile-1)/tile*tile, co.blocks)
	co.starts = extend(co.starts, size)
	for _, g := range co.groups {
		g.env = extend(g.env, (size+tile-1)/tile*len(g.srcs)*tile)
	}
	co.coarse = cursor{head: co.coarse.size, n: co.coarse.n, size: size}
}

// extend returns s lengthened to n, in an allocation of exactly that size.
func extend[T any](s []T, n int) []T {
	t := make([]T, n)
	copy(t, s)
	return t
}

// at returns the entry at log position p.
func (rec *seriesRec) at(p uint32) *logEntry { return &rec.log[p&uint32(len(rec.log)-1)] }

// sample marks the end of fine slot's entries in the log after appending
// what each bucket gained since the newest sample. oldest is the slot of
// the oldest retained sample; entries before its mark are released,
// and when it is slot itself no retained sample precedes this one, so
// nothing is logged. Allocates only when the log must grow.
func (rec *seriesRec) sample(slot, oldest int) {
	h, last := rec.h, rec.last
	for j := range last {
		c := h.BucketCount(j)
		if c == last[j] {
			continue
		}
		if slot != oldest {
			rec.append(j, c-last[j], rec.ends[oldest])
		}
		last[j] = c
	}
	rec.ends[slot] = rec.head
}

// append logs growth d of bucket j, in as many entries as its width takes.
// The entries from tail on are retained: when they fill the log, it grows.
func (rec *seriesRec) append(j int, d int64, tail uint32) {
	for d > 0 {
		if rec.head-tail == uint32(len(rec.log)) {
			rec.grow(tail)
		}
		e := min(d, maxDelta)
		*rec.at(rec.head) = logEntry(uint32(j)<<16 | uint32(e))
		rec.head++
		d -= e
	}
}

// grow doubles a log whose every entry, tail to head, is still retained.
// Positions keep their meaning: an entry moves to its position modulo the
// new length.
func (rec *seriesRec) grow(tail uint32) {
	log := make([]logEntry, 2*len(rec.log))
	for p := tail; p != rec.head; p++ {
		log[p&uint32(len(log)-1)] = *rec.at(p)
	}
	rec.log = log
}

// bucketDeltas fills deltas (one per bucket) with each bucket's growth between
// the retained samples at fine slots prev and cur, prev the older, and
// returns the sum: the log entries between the two end marks. The one
// place bucket differences are computed.
func (rec *seriesRec) bucketDeltas(prev, cur int, deltas []int64) (total int64) {
	clear(deltas)
	for p, end := rec.ends[prev], rec.ends[cur]; p != end; p++ {
		e := *rec.at(p)
		deltas[e.bucket()] += e.delta()
		total += e.delta()
	}
	return total
}

// LastRound returns the most recently sampled round (-1 before any).
func (st *Store) LastRound() int {
	if st == nil {
		return -1
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return int(st.lastRound)
}

// Samples returns how many Sample calls the store has absorbed.
func (st *Store) Samples() int64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.samples
}

// NumSeries returns how many series are attached.
func (st *Store) NumSeries() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.maybeRefreshLocked()
	return len(st.series)
}

// Retention reports the configured ring geometry: fine rounds, rounds
// per coarse block, and retained coarse blocks.
func (st *Store) Retention() (rounds, coarseBlock, coarseBlocks int) {
	if st == nil {
		return 0, 0, 0
	}
	return st.capacity, int(st.block), st.blocks
}

// SeriesIDs returns every attached series id (name plus {k=v} labels in
// registration order), sorted.
func (st *Store) SeriesIDs() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	st.maybeRefreshLocked()
	ids := make([]string, len(st.series))
	for i, rec := range st.series {
		ids[i] = rec.id
	}
	st.mu.Unlock()
	sort.Strings(ids)
	return ids
}
