// Package slo audits the paper's stochastic service guarantee as a live
// SLO: the analytic bounds the admission controller quotes — b_late(N,t),
// the Chernoff bound on P[T_N > t], and b_glitch (eq. 3.3.3) — are error
// budgets, and the measured behaviour of the running rounds is checked
// against them continuously instead of only at exit (BoundTightness) or
// in offline tests.
//
// The estimators follow the time-domain formulation of stochastic service
// guarantees (Xie & Jiang, arXiv:0904.2018): the guarantee is evaluated
// over sliding windows of rounds rather than cumulative history, so a
// bound violation shows up while it is happening and ages out once the
// cause clears. Two windows run side by side, after the SRE multi-window
// discipline:
//
//   - fast (~1× round horizon): reacts within tens of rounds, but one
//     late round swings it hard;
//   - slow (~long horizon): smooths single-round noise.
//
// A window's violation count k over its population n (late disk-rounds
// over loaded disk-rounds, glitched over served fragments) is, under the
// promise, at most a Bin(n, budget) draw: eq. 3.3.5's count, taken over
// the interval the window spans. A window rejects the budget when k
// reaches the level-Alpha critical count crit(n) = min{k : P[Bin(n,
// budget) ≥ k] ≤ Alpha}, so a server that keeps its promise sees a false
// rejection in at most an Alpha share of a window's evaluations, at any
// disk count, window or budget. An alert is Pending when the fast window
// rejects and Firing when both do, which suppresses one-off noise. A
// Pending alert stands down once the fast window's measured rate falls
// below the budget; a Firing one resolves only once both windows' rates
// have, so each direction needs both windows, and one incident that
// persists fires once however often its fast window happens to see no
// late round. The gap between the mean n·budget and crit(n) is the
// hysteresis that keeps an alert from flapping.
//
// The test and the machine are one type, Alert, so the same rule runs
// wherever counts are: a shard's Auditor steps one Alert per target over
// its disks' pooled windows, and a cluster coordinator steps one per
// target over its shards' pooled windows (the heartbeat's Health).
//
// The observe path (ObserveDisk + EndRound) is zero-allocation in steady
// state: every window is a preallocated ring of per-round slots with
// running sums maintained incrementally, and evaluation returns a value
// type. Snapshots for exposition (Status) allocate, but only readers pay.
package slo

import (
	"fmt"
	"sync"

	"mzqos/internal/chernoff"
)

// Alpha is the level of the audit's test: the largest probability with
// which a window whose violations are Bin(n, budget) may reject. At 1e-3
// a Bernoulli model of a server late exactly as often as b_late(26)
// allows fired no alert in 200 000 rounds on one disk or four (see
// TestBernoulliModelAlertRates).
const Alpha = 1e-3

// Defaults used when the corresponding Config field is zero.
const (
	// DefaultFastWindow is the fast estimation window in rounds — about
	// one round horizon of reaction time.
	DefaultFastWindow = 64
	// DefaultSlowWindow is the slow estimation window in rounds.
	DefaultSlowWindow = 512
	// DefaultResolvedFor is how many rounds a Resolved alert remains
	// visible before returning to Inactive.
	DefaultResolvedFor = 32
)

// Audited targets. Each maps one analytic bound of the guarantee to an
// error budget.
const (
	// TargetLate audits windowed P[T_N > t] (late loaded rounds) against
	// b_late — the bound on a full round overrunning the round length.
	TargetLate = "late"
	// TargetGlitch audits the windowed glitch rate (late or lost
	// fragments per served fragment) against b_glitch (eq. 3.3.3).
	TargetGlitch = "glitch"
)

// Target indices into per-target arrays.
const (
	idxLate = iota
	idxGlitch
	numTargets
)

// TargetName returns the audited target name for an index (the order of
// Evaluation and Status rows): TargetLate, then TargetGlitch.
func TargetName(i int) string {
	if i == idxLate {
		return TargetLate
	}
	return TargetGlitch
}

// State is an alert's position in the Pending→Firing→Resolved machine.
type State int32

const (
	// Inactive: the fast window does not reject the budget.
	Inactive State = iota
	// Pending: the fast window rejects the budget but the slow window
	// does not (yet) — a warning, not an alert.
	Pending
	// Firing: both windows reject the budget — the measured behaviour is
	// violating the quoted bound.
	Firing
	// Resolved: a fired alert whose fast window's rate has fallen below
	// the budget; it ages back to Inactive.
	Resolved
)

// String names the state (inactive, pending, firing, resolved).
func (s State) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	case Resolved:
		return "resolved"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// MarshalText renders the state as its name in JSON payloads.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	switch string(b) {
	case "inactive":
		*s = Inactive
	case "pending":
		*s = Pending
	case "firing":
		*s = Firing
	case "resolved":
		*s = Resolved
	default:
		return fmt.Errorf("slo: unknown state %q", b)
	}
	return nil
}

// Config sizes an Auditor. The zero value enables auditing with the
// package defaults; set Disabled to run without one.
type Config struct {
	// Disabled turns the audit off (the engine then reports no SLO
	// health and no alert can fire).
	Disabled bool
	// FastWindow and SlowWindow are the estimation windows in rounds.
	// Fast must not exceed Slow (it is clamped to it otherwise).
	FastWindow int
	SlowWindow int
	// ResolvedFor is how many rounds a Resolved alert stays visible
	// before returning to Inactive.
	ResolvedFor int
}

// withDefaults fills zero fields with the package defaults.
func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = DefaultFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = DefaultSlowWindow
	}
	if c.FastWindow > c.SlowWindow {
		c.FastWindow = c.SlowWindow
	}
	if c.ResolvedFor <= 0 {
		c.ResolvedFor = DefaultResolvedFor
	}
	return c
}

// Count is one window's test input for one target: Violations of the
// budgeted event out of a Population of trials — late disk-rounds of
// loaded disk-rounds, or glitched fragments of served fragments.
type Count struct {
	Violations int64 `json:"violations"`
	Population int64 `json:"population"`
}

// Rate is the window's measured rate, Violations/Population; 0 for an
// empty window.
func (c Count) Rate() float64 {
	if c.Population <= 0 {
		return 0
	}
	return float64(c.Violations) / float64(c.Population)
}

// Add pools another window's counts into c.
func (c *Count) Add(o Count) {
	c.Violations += o.Violations
	c.Population += o.Population
}

// slot is one round's observation on one disk: the late-round indicator
// that b_late bounds and the fragment-level glitch count that b_glitch
// bounds. The same struct doubles as a running window sum.
type slot struct {
	loaded   int64 // disk-rounds observed: 1 per ObserveDisk
	late     int64 // 1 when the loaded sweep overran the round length (or the disk was down)
	requests int64 // fragments due on the disk
	glitches int64 // late or lost fragments
}

func (s *slot) add(o slot) {
	s.loaded += o.loaded
	s.late += o.late
	s.requests += o.requests
	s.glitches += o.glitches
}

func (s *slot) sub(o slot) {
	s.loaded -= o.loaded
	s.late -= o.late
	s.requests -= o.requests
	s.glitches -= o.glitches
}

// maxCount is the most requests, and the most glitches, one disk-round
// counts: a ring slot keeps each in 31 bits. A disk serves one offset class
// a round, at most N_max streams, and model.New refuses a search cap past
// 2^16 streams per disk, so no server reaches it; ObserveDisk clamps to it.
const maxCount = 1<<31 - 1

// pack returns a finalized round's slot as a ring entry: loaded in bit 63,
// late in bit 62, requests in bits 31 to 61 and glitches in bits 0 to 30.
// ObserveDisk keeps loaded and late to 0 or 1 and the counts to maxCount.
func (s slot) pack() uint64 {
	return uint64(s.loaded)<<63 | uint64(s.late)<<62 | uint64(s.requests)<<31 | uint64(s.glitches)
}

// unpack returns the slot a ring entry holds.
func unpack(p uint64) slot {
	return slot{
		loaded:   int64(p >> 63),
		late:     int64(p >> 62 & 1),
		requests: int64(p >> 31 & maxCount),
		glitches: int64(p & maxCount),
	}
}

// count returns target i's counts in a window sum: late over loaded
// disk-rounds, or glitched over served fragments.
func (s *slot) count(i int) Count {
	if i == idxLate {
		return Count{s.late, s.loaded}
	}
	return Count{s.glitches, s.requests}
}

// diskWindows is one disk's sliding-window state: a ring of the last
// SlowWindow finalized round slots, packed into 8 bytes each, plus
// incrementally maintained sums over the fast and slow windows. Rotation
// is O(1) and allocation-free.
type diskWindows struct {
	ring []uint64 // last len(ring) finalized rounds, packed; ring[pos] is the oldest
	pos  int      // next write position
	cur  slot     // the round being accumulated (ObserveDisk writes here)
	fast slot     // running sum over the last FastWindow finalized rounds
	slow slot     // running sum over the whole ring
}

// rotate finalizes the current round's slot into the ring, evicting the
// round leaving each window from its running sum.
func (d *diskWindows) rotate(fastW int) {
	w := len(d.ring)
	// The slot FastWindow back leaves the fast window as cur enters it.
	fi := d.pos - fastW
	if fi < 0 {
		fi += w
	}
	d.fast.add(d.cur)
	d.fast.sub(unpack(d.ring[fi]))
	// The slot being overwritten leaves the slow window. Ring slots start
	// zeroed, so the subtraction is a no-op until the ring has wrapped.
	d.slow.add(d.cur)
	d.slow.sub(unpack(d.ring[d.pos]))
	d.ring[d.pos] = d.cur.pack()
	d.pos++
	if d.pos == w {
		d.pos = 0
	}
	d.cur = slot{}
}

// critCache is one window's critical count for one target, with a range
// of populations [lo, hi] it is known to hold for: crit is non-decreasing
// in n, so two populations with the same crit bound a range that shares
// it. A round whose population stays in the range costs one compare. The
// zero value is empty (a critical count at a level below 1 is at least 1).
type critCache struct {
	lo, hi, crit int64
}

// rejects reports whether a window's counts reject the budget at level
// Alpha, recomputing crit only when the population leaves the cached
// range. crit ≥ 1, so a window without violations never rejects.
func (c *critCache) rejects(w Count, budget float64) bool {
	k, n := w.Violations, w.Population
	if k == 0 {
		return false
	}
	if c.crit == 0 || n < c.lo || n > c.hi {
		crit := chernoff.BinomialCritical(n, budget, Alpha)
		switch {
		case crit != c.crit:
			c.lo, c.hi, c.crit = n, n, crit
		case n < c.lo:
			c.lo = n
		default:
			c.hi = n
		}
	}
	return k >= c.crit
}

// Critical is the count at which a window of n trials rejects budget:
// the least k with P[Bin(n, budget) ≥ k] ≤ Alpha.
func Critical(n int64, budget float64) int64 {
	return chernoff.BinomialCritical(n, budget, Alpha)
}

// Alert is one target's alert: the level-Alpha test of a fast and a slow
// window's counts, the Pending→Firing→Resolved machine it drives, and the
// critical-count caches of both windows. A shard's Auditor keeps one per
// target; a cluster coordinator keeps one per target over its shards'
// pooled counts. Step it from one goroutine; a copy is a snapshot.
type Alert struct {
	state      State
	since      int // round of the last transition
	fired      int64
	resolved   int64
	budget     float64 // the budget the caches hold crit for
	fast, slow critCache
}

func (m *Alert) to(s State, round int) {
	m.state = s
	m.since = round
}

// Step tests the fast and slow windows' counts against budget and
// advances the machine one round: Pending when the fast window rejects,
// Firing when both do, Resolved once both windows' rates are below the
// budget, Inactive resolvedFor rounds after that. It reports the state
// before the round and whether it changed. Allocation-free.
func (m *Alert) Step(round int, fast, slow Count, budget float64, resolvedFor int) (from State, changed bool) {
	if budget != m.budget {
		m.budget, m.fast, m.slow = budget, critCache{}, critCache{}
	}
	fastRejects := m.fast.rejects(fast, budget)
	bothReject := fastRejects && m.slow.rejects(slow, budget)
	fastBelow := fast.Rate() < budget
	from = m.state
	switch m.state {
	case Inactive, Resolved:
		switch {
		case bothReject:
			m.to(Firing, round)
			m.fired++
		case fastRejects:
			m.to(Pending, round)
		case m.state == Resolved && round-m.since >= resolvedFor:
			m.to(Inactive, round)
		}
	case Pending:
		switch {
		case bothReject:
			m.to(Firing, round)
			m.fired++
		case fastBelow:
			m.to(Inactive, round)
		}
	case Firing:
		// Both windows decide recovery, as both decided firing: the
		// alert clears once the slow window has seen the incident end
		// too, not whenever the fast window dips below the budget.
		if fastBelow && slow.Rate() < budget {
			m.to(Resolved, round)
			m.resolved++
		}
	}
	return from, m.state != from
}

// Status is the alert's exposition row for target: budget, state and
// lifecycle counts, and each window's counts against its critical count,
// with the windows' spans taken from cfg.
func (m *Alert) Status(target string, budget float64, fast, slow Count, cfg Config) TargetStatus {
	return TargetStatus{
		Target:        target,
		Budget:        budget,
		State:         m.state,
		SinceRound:    m.since,
		FiredTotal:    m.fired,
		ResolvedTotal: m.resolved,
		Windows: []WindowEstimate{
			{Window: "fast", Rounds: cfg.FastWindow, Count: fast, Critical: Critical(fast.Population, budget), Measured: fast.Rate()},
			{Window: "slow", Rounds: cfg.SlowWindow, Count: slow, Critical: Critical(slow.Population, budget), Measured: slow.Rate()},
		},
	}
}

// TargetEval is one target's evaluation after a round: the windows'
// counts, the alert state, and whether this round transitioned.
type TargetEval struct {
	// Budget is the analytic bound in force (b_late or b_glitch at the
	// current N_max).
	Budget float64
	// Fast and Slow are the windows' counts the test ran on; their Rate
	// is the windowed estimate (late-round tail or glitch rate).
	Fast, Slow Count
	// State is the alert state after this round; when Transition is set,
	// From is the state before it.
	State      State
	Transition bool
	From       State
}

// Evaluation is the outcome of one EndRound: both targets, by value, so
// the steady-state evaluate path allocates nothing.
type Evaluation struct {
	// Round is the evaluated round index (rounds observed so far − 1).
	Round int
	// Late audits b_late; Glitch audits b_glitch.
	Late, Glitch TargetEval
}

// Auditor is the SLO audit engine for one shard: per-disk sliding-window
// estimators, an aggregate across disks, and one alert state machine per
// target. ObserveDisk and EndRound are driven from the round loop;
// Status may be called concurrently (it takes the same short mutex).
// A nil *Auditor is a disabled audit: every method is a no-op.
type Auditor struct {
	mu      sync.Mutex
	cfg     Config
	disks   []diskWindows
	budgets [numTargets]float64
	alerts  [numTargets]Alert
	round   int  // rounds observed (EndRound calls)
	fast    slot // the fast windows' sums over every disk, as of the last EndRound
	slow    slot // the slow windows' sums
}

// New builds an Auditor for a `disks`-wide array. Zero Config fields take
// the package defaults.
func New(cfg Config, disks int) (*Auditor, error) {
	if cfg.Disabled {
		return nil, nil
	}
	if disks < 1 {
		return nil, fmt.Errorf("slo: need at least one disk, got %d", disks)
	}
	cfg = cfg.withDefaults()
	a := &Auditor{cfg: cfg, disks: make([]diskWindows, disks)}
	for d := range a.disks {
		a.disks[d].ring = make([]uint64, cfg.SlowWindow)
	}
	return a, nil
}

// SetBudgets installs the analytic bounds currently in force as the
// error budgets: bLate = b_late(N_max, t), bGlitch = b_glitch(N_max, t).
// Call whenever the admission limit changes (recalibration, degraded
// mode) so the audit always measures against the quoted guarantee.
func (a *Auditor) SetBudgets(bLate, bGlitch float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.budgets[idxLate] = bLate
	a.budgets[idxGlitch] = bGlitch
	a.mu.Unlock()
}

// ObserveDisk records one loaded disk's sweep outcome for the current
// round in its window: whether the sweep was late (overran the round
// length, or the disk was down), and the fragment counts b_glitch is
// measured against, each clamped to 0 through maxCount. Call once per
// loaded disk per round, from the round loop: a second call in the same
// round replaces the first. Zero allocations.
func (a *Auditor) ObserveDisk(disk int, late bool, requests, glitches int) {
	if a == nil || disk < 0 || disk >= len(a.disks) {
		return
	}
	cur := slot{
		loaded:   1,
		requests: int64(min(max(requests, 0), maxCount)),
		glitches: int64(min(max(glitches, 0), maxCount)),
	}
	if late {
		cur.late = 1
	}
	a.mu.Lock()
	a.disks[disk].cur = cur
	a.mu.Unlock()
}

// EndRound finalizes the current round across every disk, tests both
// targets' fast and slow windows against their budgets, and advances the
// alert machines. Returns the evaluation by value — the caller (the round
// loop) reacts to Transition flags. Zero allocations in steady state.
func (a *Auditor) EndRound() Evaluation {
	if a == nil {
		return Evaluation{Round: -1}
	}
	a.mu.Lock()
	a.fast, a.slow = slot{}, slot{}
	for d := range a.disks {
		dw := &a.disks[d]
		dw.rotate(a.cfg.FastWindow)
		a.fast.add(dw.fast)
		a.slow.add(dw.slow)
	}
	round := a.round
	a.round++

	ev := Evaluation{Round: round}
	evals := [numTargets]*TargetEval{&ev.Late, &ev.Glitch}
	for i, te := range evals {
		m := &a.alerts[i]
		te.Budget = a.budgets[i]
		te.Fast, te.Slow = a.fast.count(i), a.slow.count(i)
		te.From, te.Transition = m.Step(round, te.Fast, te.Slow, te.Budget, a.cfg.ResolvedFor)
		te.State = m.state
	}
	a.mu.Unlock()
	return ev
}

// WindowEstimate is one window's estimate for one target.
type WindowEstimate struct {
	// Window names the window ("fast" or "slow"); Rounds is its span.
	Window string `json:"window"`
	Rounds int    `json:"rounds"`
	// Count is what the window tested: its violations of its population.
	Count
	// Critical is the count at which the window rejects the budget:
	// the least k with P[Bin(Population, budget) ≥ k] ≤ Alpha.
	Critical int64 `json:"critical"`
	// Measured is Violations/Population.
	Measured float64 `json:"measured"`
}

// TargetStatus is one audited target's full exposition row.
type TargetStatus struct {
	// Target is TargetLate or TargetGlitch; Budget its analytic bound.
	Target string  `json:"target"`
	Budget float64 `json:"budget"`
	// State is the alert state; SinceRound when it was entered.
	State      State `json:"state"`
	SinceRound int   `json:"since_round"`
	// FiredTotal and ResolvedTotal count lifecycle transitions.
	FiredTotal    int64 `json:"fired_total"`
	ResolvedTotal int64 `json:"resolved_total"`
	// Windows holds the fast then slow estimates.
	Windows []WindowEstimate `json:"windows"`
}

// DiskEstimate is one disk's window estimates (the per-disk layer of the
// per-disk / per-shard / cluster roll-up).
type DiskEstimate struct {
	Disk int `json:"disk"`
	// PLateFast/Slow are the disk's windowed late-round tails;
	// GlitchFast/Slow its windowed glitch rates.
	PLateFast  float64 `json:"p_late_fast"`
	PLateSlow  float64 `json:"p_late_slow"`
	GlitchFast float64 `json:"glitch_fast"`
	GlitchSlow float64 `json:"glitch_slow"`
}

// Status is the full audit snapshot (the /slo payload's core).
type Status struct {
	// Enabled is false when the audit is off (every other field zero).
	Enabled bool `json:"enabled"`
	// Round is the number of rounds observed.
	Round int `json:"round"`
	// FastWindow/SlowWindow are the window spans in rounds; Alpha the
	// level each window is tested at.
	FastWindow int     `json:"fast_window_rounds"`
	SlowWindow int     `json:"slow_window_rounds"`
	Alpha      float64 `json:"alpha"`
	// Targets holds one row per audited bound; Disks the per-disk
	// estimates.
	Targets []TargetStatus `json:"targets"`
	Disks   []DiskEstimate `json:"disks"`
}

// Status snapshots the audit for exposition. Safe to call concurrently
// with the observe path; allocates (readers only).
func (a *Auditor) Status() Status {
	if a == nil {
		return Status{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	st := Status{
		Enabled:    true,
		Round:      a.round,
		FastWindow: a.cfg.FastWindow,
		SlowWindow: a.cfg.SlowWindow,
		Alpha:      Alpha,
		Targets:    make([]TargetStatus, numTargets),
		Disks:      make([]DiskEstimate, len(a.disks)),
	}
	for d := range a.disks {
		dw := &a.disks[d]
		st.Disks[d] = DiskEstimate{
			Disk:       d,
			PLateFast:  dw.fast.count(idxLate).Rate(),
			PLateSlow:  dw.slow.count(idxLate).Rate(),
			GlitchFast: dw.fast.count(idxGlitch).Rate(),
			GlitchSlow: dw.slow.count(idxGlitch).Rate(),
		}
	}
	for i := range st.Targets {
		st.Targets[i] = a.alerts[i].Status(TargetName(i), a.budgets[i], a.fast.count(i), a.slow.count(i), a.cfg)
	}
	return st
}

// Health is the heartbeat-sized audit snapshot a shard hands its
// coordinator: per target (late, then glitch) the budget in force, the
// fast and slow windows' counts its own test ran on, and the alert state.
// The coordinator pools the counts and tests the pool the same way. Zero
// (Enabled false) when the shard runs no audit.
type Health struct {
	Enabled bool `json:"enabled"`
	// FastWindow and SlowWindow are the window spans in rounds.
	FastWindow int `json:"fast_window_rounds"`
	SlowWindow int `json:"slow_window_rounds"`
	// Budgets, Windows ([target][fast, slow]) and States are per target.
	Budgets [numTargets]float64  `json:"budgets"`
	Windows [numTargets][2]Count `json:"windows"`
	States  [numTargets]State    `json:"states"`
}

// Health snapshots the counts and states as of the last EndRound. Safe to
// call concurrently with the observe path; allocation-free.
func (a *Auditor) Health() Health {
	if a == nil {
		return Health{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	h := Health{Enabled: true, FastWindow: a.cfg.FastWindow, SlowWindow: a.cfg.SlowWindow, Budgets: a.budgets}
	for i := range h.Windows {
		h.Windows[i] = [2]Count{a.fast.count(i), a.slow.count(i)}
		h.States[i] = a.alerts[i].state
	}
	return h
}
