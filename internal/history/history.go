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
//     wake together into one group. Each series keeps two tiers: the fine
//     ring, of configurable retention (DefaultRounds) and one round per
//     slot, and the coarse ring, one min/max/last envelope per slot over
//     DefaultCoarseBlock-round blocks (DefaultCoarseBlocks of them), so
//     queries reaching past the fine retention still resolve envelope and
//     level at block granularity. The two are one design. A tier is kept
//     by chunks, 64 fine slots or 16 coarse blocks. The group keeps the
//     open chunk, the one the newest slot is in, raw and laid out in tiles
//     — tile consecutive slots of one series adjacent, the tiles of the
//     group's k series side by side — so a Sample writes one strided row
//     into lines that stay hot for several rounds. When a ring moves into
//     its next chunk, every column of the chunk just finished is sealed:
//     XOR-encoded as Gorilla does (Pelkonen et al., VLDB 2015), a value
//     against the one before, so a gauge that holds still costs a bit a
//     sample and a counter a few, into the series' ring of sealed chunks of
//     that tier. A coarse chunk seals its 16 envelopes as one run of 48
//     values, last, max and min per block, so a counter's max, its last,
//     costs one bit. The copy a chunk had a lap before stays readable, for
//     the slots the open chunk has not reached, until the open chunk seals
//     over it, so every retained sample and envelope reads back bit for
//     bit. Both tiers are filled with the value the series rested at, which
//     is what every retained sample read, and then the group takes the
//     sample that woke it like any other. A series never goes back to rest;
//   - per histogram series, a log of bucket increments: one 2-byte entry
//     per bucket that moved between two consecutive samples — the bucket
//     and its growth a byte each — or, for a bucket past 254 or a growth
//     past 255, one escape entry that holds both whole, and per fine slot
//     the log position its sample's entries end at, as an offset from its
//     64-slot chunk's base in a byte (or more, once a chunk of samples
//     has logged more than a byte holds). Every read of a histogram is a
//     difference — rate() and quantile-over-time (T_N p50/p99/p999
//     trajectories) over the bucket deltas between two retained samples —
//     and that difference is the entries between the two samples' marks, so
//     a histogram costs what it changed, not a copy of every bucket per
//     sample.
//
// Reads have one path: Query, Dump and TailTrajectory all read through
// evaluate, the one walk over a series, which folds its samples into step
// windows and reduces them; it goes through the series' fineRun and
// coarseRun, which hand out a resting series' tile, a run of an open
// chunk and a sealed chunk, decoded whole as the walk reaches it, as the
// same plain slices. The decoder has that one sequential reader.
//
// The round column, the block starts of the whole coarse retention and the
// marks are allocated when a cohort attaches, and a log starts at one
// entry per retained sample — what a histogram observed once a round
// needs, recycled in place as samples leave the fine ring. So the
// per-round Sample hot path allocates nothing once its series' rings have
// stopped growing: a read and a compare per resting series, an atomic
// read, a tile store and an envelope fold per woken one, then per
// histogram a compare of each live bucket with the count last seen, under
// a single short mutex shared with queries, one round in 64 the seal of
// every woken column's fine chunk, and one block in 16 (1 024 rounds by
// default) that of its coarse chunk. Four things allocate, each only when
// it must: a series' first move, which allocates its share of its group's
// two open chunks (512 B of values and 384 B of envelopes) and its two
// rings of sealed chunks, each with room for the chunks its tier has
// sealed and retains and the next, and the rings' chunk marks (256 B
// each at the default retention), once per series; a ring of sealed
// chunks whose retained chunks and the one being sealed do not fit, which
// grows to what they need plus an eighth (and what the allocation's size
// class holds beyond that), never shrinks, and stops once the series'
// chunks stop growing — a lap of its tier after the series woke; a log
// whose retained samples changed more buckets than it has entries (bulk
// folds, every bucket moving every sample): it doubles, never shrinks,
// and stops within the dense size of one count per bucket per retained
// sample; and the marks of a log, which widen, for good, when a chunk of
// samples logs more than their width holds.
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
// It is also the coarse tier's chunk: the blocks that seal together.
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

// tier is one of a cohort's two rings, the fine one (a round a slot) and
// the coarse one (a block a slot), kept by chunks of per slots: chunk for
// the fine tier, tile for the coarse. A wake group keeps the open chunk,
// the one the newest slot is in, raw and tiled, and every column's other
// retained chunks sealed in the column's ring of the tier. seals counts
// the chunks sealed so far, so chunk seals%chunks is the open one; a
// retention that is not a multiple of per ends on a shorter chunk.
type tier struct {
	cursor
	per, chunks, seals int
}

// newTier returns an empty tier of size slots.
func newTier(size, per int) tier {
	return tier{cursor: cursor{size: size}, per: per, chunks: (size + per - 1) / per}
}

// span returns how many slots chunk c has.
func (t *tier) span(c int) int { return min(t.per, t.size-c*t.per) }

// sealing reports whether the next push leaves the newest slot's chunk.
func (t *tier) sealing() bool { return t.n > 0 && t.head%t.per == 0 }

// oldestSealed returns the chunk whose sealed copy is the oldest each
// column retains: chunk 0 on the first lap, the open chunk's copy from a
// lap before after it.
func (t *tier) oldestSealed() int {
	if t.seals < t.chunks {
		return 0
	}
	return t.seals % t.chunks
}

// locate is run for a woken series: the k-th oldest retained entry's slot,
// how many entries from it on one read hands out, and the chunk they are
// decoded from. c is -1 for the entries the open chunk holds raw, whose
// run ends at a tile's end; otherwise the run ends at chunk c's end and
// is read from its sealed copy — a chunk sealed, or the part of the open
// chunk's copy from a lap before that the open chunk has not overwritten.
func (t *tier) locate(k int) (slot, run, c int) {
	slot, run = t.run(k)
	c, newest := slot/t.per, t.newest()
	if c == newest/t.per && slot <= newest {
		return slot, run, -1
	}
	return slot, min(c*t.per+t.span(c)-slot, t.n-k), c
}

// read decodes the sealed copy of chunk c that ring r retains into vals.
// A copy starts where the copy sealed before it ends, the oldest one at
// the ring's tail.
func (t *tier) read(r *sealedRing, c int, vals []float64, w *chunkWords) {
	start := r.tail
	if c != t.oldestSealed() {
		start = r.ends[(c+t.chunks-1)%t.chunks]
	}
	r.read(vals, start, r.ends[c], w)
}

// envelope is one series' min/max/last over one coarse block.
type envelope struct {
	min, max, last float64
}

// interleave writes env into vals as last, max, min per block, the order a
// coarse chunk is sealed in: a counter's max is its last, one bit. It
// returns the 3·len(env) values written.
func interleave(vals []float64, env []envelope) []float64 {
	vals = vals[:3*len(env)]
	for i, e := range env {
		vals[3*i], vals[3*i+1], vals[3*i+2] = e.last, e.max, e.min
	}
	return vals
}

// deinterleave reads env back out of vals written by interleave.
func deinterleave(env []envelope, vals []float64) {
	for i := range env {
		env[i] = envelope{last: vals[3*i], max: vals[3*i+1], min: vals[3*i+2]}
	}
}

// cohort is what the series attached by one registry enumeration share.
// They are sampled at exactly the same rounds, so the round column, the
// block starts and both tiers' cursors exist once per cohort; the values
// live with the series — one value each for those at rest, a column of a
// wake group for those that have moved.
type cohort struct {
	// srcs are the live handles in attach order; hists the histogram
	// series among them.
	srcs  []telemetry.Series
	hists []*seriesRec

	// fine keeps a round a slot, rounds[slot] the round sampled into it;
	// coarse a block a slot, starts[slot] the block's first round.
	fine, coarse tier
	rounds       []int64
	starts       []int64

	// resting are the series that have read one value since they attached,
	// in attach order; groups the blocks of those that have read a second,
	// one per sample some series first moved in.
	resting []*rest
	groups  []*group

	// vals, env and words hold a chunk's values, its envelopes and its
	// encoding while it is sealed or read.
	vals  [chunk]float64
	env   [tile]envelope
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
// sample. vals is the open fine chunk, raw and tiled: the value of column
// col at the chunk's offset o is vals[((o/tile)*k+col)*tile+o%tile], padded
// to a whole number of tiles. env is the open coarse chunk, one tile, the
// same way: column col's envelope of the chunk's o-th block is
// env[col*tile+o]. fine[col] and coarse[col] are column col's rings of
// sealed chunks.
type group struct {
	srcs         []*telemetry.Series // live handles in column order
	vals         []float64
	env          []envelope
	fine, coarse []sealedRing
}

// at returns the index of column col at offset pos of an open chunk: vals
// by fine offset, env by coarse offset (below tile).
func (g *group) at(pos, col int) int {
	return ((pos/tile)*len(g.srcs)+col)*tile + pos%tile
}

// logUnit is a 16-bit unit of a histogram's log. An entry is one unit, the
// bucket in the high byte and its growth between two consecutive samples
// in the low, when the bucket is below escape and the growth below 256.
// Anything wider is an escape entry: a unit with escape in its high byte
// and in its low how many units the growth takes, then the bucket's unit
// (telemetry.NewHistogram refuses more than telemetry.MaxBuckets), then the
// growth's units, low first. A fold of 2³³ observations is five units.
type logUnit uint16

// escape marks an escape entry's first unit.
const escape = 0xff

// marks are a histogram's per-slot log positions: for each fine slot, the
// position one past the entries of the sample taken into it. A chunk of
// fine slots shares a base, the position its first slot's entries start
// at, and each slot keeps its end's offset from that base in off, width
// little-endian bytes: the fewest every offset so far has needed. The open
// chunk's slots past the newest still hold their offsets from a lap
// before, whose base is relap.
type marks struct {
	base  []uint32
	relap uint32
	off   []byte
	width int
}

// newMarks returns the marks of a fine ring of size slots.
func newMarks(size int) marks {
	return marks{base: make([]uint32, (size+chunk-1)/chunk), off: make([]byte, size), width: 1}
}

// open starts the chunk of fine slot slot, its first, at log position p.
func (m *marks) open(slot int, p uint32) {
	c := slot / chunk
	m.relap, m.base[c] = m.base[c], p
}

// at returns the end position of the sample at fine slot slot, newest the
// newest slot.
func (m *marks) at(slot, newest int) uint32 {
	base := m.base[slot/chunk]
	if slot/chunk == newest/chunk && slot > newest {
		base = m.relap
	}
	return base + m.offset(slot)
}

// offset returns slot's offset from its base.
func (m *marks) offset(slot int) (off uint32) {
	for i, b := range m.off[slot*m.width:][:m.width] {
		off |= uint32(b) << (8 * i)
	}
	return off
}

// set marks p as the end of the newest sample, at fine slot slot, first
// widening every offset when p's does not fit.
func (m *marks) set(slot int, p uint32) {
	off := p - m.base[slot/chunk]
	if w := (bits.Len32(off) + 7) / 8; w > m.width {
		old := *m
		m.off, m.width = make([]byte, len(old.off)/old.width*w), w
		for s := range len(m.off) / w {
			m.put(s, old.offset(s))
		}
	}
	m.put(slot, off)
}

// put stores slot's offset in the marks' width.
func (m *marks) put(slot int, off uint32) {
	for i := range m.width {
		m.off[slot*m.width+i] = byte(off >> (8 * i))
	}
}

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
	// positions wrap with uint32); marks hold the position one past the
	// entries of the sample at each fine slot, and head is the position the
	// next unit takes.
	// The growth of every bucket between two retained samples is the
	// entries between their marks; what precedes the oldest retained
	// sample's mark is free to be overwritten.
	h      *telemetry.Histogram
	bounds []float64
	last   []int64
	marks  marks
	log    []logUnit
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
		fine:    newTier(st.capacity, chunk),
		coarse:  newTier(st.blocks, tile),
		rounds:  make([]int64, st.capacity),
		starts:  make([]int64, st.blocks),
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
			rec.marks = newMarks(st.capacity)
			rec.log = make([]logUnit, 1<<bits.Len(uint(st.capacity-1)))
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
// (no new registrations, no series moving for the first time, no ring of
// sealed chunks growing) allocates nothing.
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
	co, g := rec.co, rec.grp
	if rec.rest != nil {
		slot, run := co.fine.run(k)
		return slot, co.rounds[slot : slot+run], rec.rest.vals[:run]
	}
	slot, run, c := co.fine.locate(k)
	if c < 0 {
		return slot, co.rounds[slot : slot+run], g.vals[g.at(slot%chunk, rec.col):][:run]
	}
	co.fine.read(&g.fine[rec.col], c, co.vals[:co.fine.span(c)], &co.words)
	return slot, co.rounds[slot : slot+run], co.vals[slot-c*chunk:][:run]
}

// coarseRun returns the run of coarse blocks starting at the k-th oldest:
// the start rounds and the series' envelopes. A run never spans more than
// one coarse chunk, which it decodes whole into the cohort's env when it is
// sealed.
func (rec *seriesRec) coarseRun(k int) (starts []int64, env []envelope) {
	co, g := rec.co, rec.grp
	if rec.rest != nil {
		slot, run := co.coarse.run(k)
		return co.starts[slot : slot+run], rec.rest.env[:run]
	}
	slot, run, c := co.coarse.locate(k)
	starts = co.starts[slot : slot+run]
	if c < 0 {
		return starts, g.env[g.at(slot%tile, rec.col):][:run]
	}
	n := co.coarse.span(c)
	co.coarse.read(&g.coarse[rec.col], c, co.vals[:3*n], &co.words)
	deinterleave(co.env[:n], co.vals[:])
	return starts, co.env[slot-c*tile:][:run]
}

// sample records one point per series at round r (start is its precomputed
// coarse block start). A resting series is read and compared with the value
// it holds; those that differ wake into one new group. Then every group
// takes the fine row of r's slot and the newest coarse block's envelopes in
// one pass, and the histograms their bucket counts. A push that leaves a
// chunk of either tier seals it first; a round whose block start differs
// from the newest block's opens a block. Allocates only in a sample some
// series first moves in, or when a ring of sealed chunks or a log grows.
func (co *cohort) sample(r, start int64) {
	if co.fine.sealing() {
		co.seal(&co.fine)
	}
	slot := co.fine.push()
	co.rounds[slot] = r
	block := co.coarse.newest()
	opened := co.coarse.n == 0 || co.starts[block] != start
	if opened {
		if co.coarse.sealing() {
			co.seal(&co.coarse)
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
		env := g.env[block%tile:]
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
// new group: every slot of both open chunks of a column is filled with the
// value its series rested at, which is what each retained sample and block
// read, and each of its rings gets a sealed copy of that value for each
// chunk the tier has sealed and retains, so the group then takes the
// sample that woke it like any other. The one place value blocks are
// allocated: per series at the default retention the open fine chunk's
// 512 B and the open coarse chunk's 384 B, and per tier a ring with room
// for two words a chunk the tier retains and the next (1.13 KiB once the
// tier has lapped) and 256 B of chunk marks, once. A series never goes
// back to rest — a gauge that moved once is expected to
// move again, and a column handed back would only be allocated a second
// time.
func (co *cohort) wake(k int) {
	g := &group{
		srcs:   make([]*telemetry.Series, k),
		vals:   make([]float64, (min(chunk, co.fine.size)+tile-1)/tile*k*tile),
		env:    make([]envelope, k*tile),
		fine:   make([]sealedRing, k),
		coarse: make([]sealedRing, k),
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
		copy(g.env[rec.col*tile:], rs.env[:])
		var env [3]float64
		g.fine[rec.col] = co.restRing(&co.fine, rs.vals[:1])
		g.coarse[rec.col] = co.restRing(&co.coarse, interleave(env[:], rs.env[:1]))
		rec.grp, rec.rest = g, nil
	}
	clear(co.resting[len(still):])
	co.resting = still
	co.groups = append(co.groups, g)
}

// restRing returns a ring of sealed chunks of tier t holding, for each
// chunk t has sealed and retains, a copy whose every slot is the values
// one slot of the rest holds: its value for the fine tier, its
// interleaved envelope for the coarse.
func (co *cohort) restRing(t *tier, slot []float64) sealedRing {
	r := newSealedRing(t.chunks, min(t.seals, t.chunks))
	for q := max(t.seals-t.chunks, 0); q < t.seals; q++ {
		c := q % t.chunks
		vals := co.vals[:t.span(c)*len(slot)]
		for i := range vals {
			vals[i] = slot[i%len(slot)]
		}
		r.seal(c, vals, false, &co.words)
	}
	return r
}

// seal encodes every column's part of the open chunk of tier t, which the
// next push leaves, into the column's ring of t: a fine chunk's values, a
// coarse chunk's envelopes interleaved. From the second lap on, the copy of
// the chunk sealed a lap before is released as the new one goes in.
// Allocates only when a ring must grow.
func (co *cohort) seal(t *tier) {
	c := t.newest() / t.per
	n := t.span(c)
	relap := t.seals >= t.chunks
	for _, g := range co.groups {
		k := len(g.srcs)
		for col := range k {
			if t == &co.coarse {
				vals := interleave(co.vals[:], g.env[col*tile:][:n])
				g.coarse[col].seal(c, vals, relap, &co.words)
				continue
			}
			for o := 0; o < n; o += tile {
				copy(co.vals[o:n], g.vals[((o/tile)*k+col)*tile:][:tile])
			}
			g.fine[col].seal(c, co.vals[:n], relap, &co.words)
		}
	}
	t.seals++
}

// at returns the unit at log position p.
func (rec *seriesRec) at(p uint32) *logUnit { return &rec.log[p&uint32(len(rec.log)-1)] }

// sample marks the end of fine slot's entries in the log after appending
// what each bucket gained since the newest sample. oldest is the slot of
// the oldest retained sample; entries before its mark are released,
// and when it is slot itself no retained sample precedes this one, so
// nothing is logged. Allocates only when the log or its marks must grow.
func (rec *seriesRec) sample(slot, oldest int) {
	if slot%chunk == 0 {
		rec.marks.open(slot, rec.head)
	}
	tail := rec.marks.at(oldest, slot)
	h, last := rec.h, rec.last
	for j := range last {
		c := h.BucketCount(j)
		if c == last[j] {
			continue
		}
		if slot != oldest {
			rec.append(j, c-last[j], tail)
		}
		last[j] = c
	}
	rec.marks.set(slot, rec.head)
}

// append logs growth d > 0 of bucket j: one unit, or an escape entry when
// either is too wide for one. The units from tail on are retained: when the
// entry does not fit beside them, the log grows.
func (rec *seriesRec) append(j int, d int64, tail uint32) {
	var units [6]logUnit
	n := 1
	if j < escape && d <= 0xff {
		units[0] = logUnit(j<<8 | int(d))
	} else {
		w := (bits.Len64(uint64(d)) + 15) / 16
		units[0], units[1] = escape<<8|logUnit(w), logUnit(j)
		for i := range w {
			units[2+i] = logUnit(d >> (16 * i))
		}
		n = 2 + w
	}
	for uint32(len(rec.log))-(rec.head-tail) < uint32(n) {
		rec.grow(tail)
	}
	for _, u := range units[:n] {
		*rec.at(rec.head) = u
		rec.head++
	}
}

// grow doubles a log whose units from tail to head are still retained.
// Positions keep their meaning: a unit moves to its position modulo the
// new length.
func (rec *seriesRec) grow(tail uint32) {
	log := make([]logUnit, 2*len(rec.log))
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
	newest := rec.co.fine.newest()
	return rec.replay(rec.marks.at(prev, newest), rec.marks.at(cur, newest), deltas)
}

// replay fills deltas with the growth the entries from log position p to
// end log per bucket, and returns the sum. It reads at most the log's
// length and stops at end, or past it.
func (rec *seriesRec) replay(p, end uint32, deltas []int64) (total int64) {
	clear(deltas)
	for left := min(int(end-p), len(rec.log)); left > 0; {
		u := *rec.at(p)
		j, d, n := int(u>>8), int64(u&0xff), uint32(1)
		if j == escape {
			j, d, n = int(*rec.at(p + 1)), 0, 2+uint32(u&0xff)
			for i := range n - 2 {
				d |= int64(*rec.at(p + 2 + i)) << (16 * i)
			}
		}
		deltas[j] += d
		total += d
		p += n
		left -= int(n)
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
