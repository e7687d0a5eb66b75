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
// rejects and Firing when both do, which suppresses one-off noise. It
// resolves (and a Pending one stands down) once the fast window's
// measured rate falls below the budget: the gap between the mean n·budget
// and crit(n) is the hysteresis that keeps it from flapping.
//
// The burn rate of a target is measured/budget — the rate at which the
// quoted error budget is being consumed, 1.0 meaning exactly at the
// bound. It is reported beside the test, not tested.
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
	"mzqos/internal/ring"
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
	// DefaultHistory bounds the violation-history transition ring.
	DefaultHistory = 128
)

// MaxBurn caps reported burn rates: a measured violation against a zero
// budget would otherwise be +Inf, which encoding/json cannot marshal.
const MaxBurn = 1e6

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
	// History bounds the retained transition ring.
	History int
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
	if c.History <= 0 {
		c.History = DefaultHistory
	}
	return c
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

// diskWindows is one disk's sliding-window state: a ring of the last
// SlowWindow finalized round slots plus incrementally maintained sums
// over the fast and slow windows. Rotation is O(1) and allocation-free.
type diskWindows struct {
	ring []slot // last len(ring) finalized rounds; ring[pos] is the oldest
	pos  int    // next write position
	cur  slot   // the round being accumulated (ObserveDisk writes here)
	fast slot   // running sum over the last FastWindow finalized rounds
	slow slot   // running sum over the whole ring
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
	d.fast.sub(d.ring[fi])
	// The slot being overwritten leaves the slow window. Ring slots start
	// zeroed, so the subtraction is a no-op until the ring has wrapped.
	d.slow.add(d.cur)
	d.slow.sub(d.ring[d.pos])
	d.ring[d.pos] = d.cur
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

// rejects reports whether k violations in a population of n reject the
// budget at level Alpha, recomputing crit only when n leaves the cached
// range. crit ≥ 1, so a window without violations never rejects.
func (c *critCache) rejects(k, n int64, budget float64) bool {
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

// machine is one target's alert state machine, with the critical-count
// caches of its fast and slow windows.
type machine struct {
	state      State
	since      int // round of the last transition
	fired      int64
	resolved   int64
	fast, slow critCache
}

func (m *machine) to(s State, round int) {
	m.state = s
	m.since = round
}

// step advances the machine one round given whether each window rejects
// the budget and whether the fast window's rate is below it, and reports
// whether a transition happened.
func (m *machine) step(round int, fastRejects, slowRejects, fastBelow bool, cfg Config) (from State, transitioned bool) {
	from = m.state
	switch m.state {
	case Inactive, Resolved:
		switch {
		case fastRejects && slowRejects:
			m.to(Firing, round)
			m.fired++
		case fastRejects:
			m.to(Pending, round)
		case m.state == Resolved && round-m.since >= cfg.ResolvedFor:
			m.to(Inactive, round)
		}
	case Pending:
		switch {
		case fastRejects && slowRejects:
			m.to(Firing, round)
			m.fired++
		case fastBelow:
			m.to(Inactive, round)
		}
	case Firing:
		// Multi-window resolution: the fast window alone decides recovery,
		// so an alert clears within ~FastWindow of the cause clearing even
		// while the slow window still remembers the incident.
		if fastBelow {
			m.to(Resolved, round)
			m.resolved++
		}
	}
	return from, m.state != from
}

// Transition is one alert state change, retained in the violation
// history ring and surfaced through /slo.
type Transition struct {
	// Round is the round the transition happened in.
	Round int `json:"round"`
	// Target is the audited target (TargetLate or TargetGlitch).
	Target string `json:"target"`
	// From and To are the states on either side of the transition.
	From State `json:"from"`
	To   State `json:"to"`
	// BurnFast and BurnSlow are the window burn rates at transition time.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// Measured is the fast-window estimate; Budget the analytic bound it
	// is compared against.
	Measured float64 `json:"measured"`
	Budget   float64 `json:"budget"`
}

// TargetEval is one target's evaluation after a round: window estimates,
// burn rates, alert state, and whether this round transitioned.
type TargetEval struct {
	// Budget is the analytic bound in force (b_late or b_glitch at the
	// current N_max).
	Budget float64
	// MeasuredFast/Slow are the windowed estimates (late-round tail or
	// glitch rate); BurnFast/Slow the corresponding burn rates.
	MeasuredFast, MeasuredSlow float64
	BurnFast, BurnSlow         float64
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
	mu       sync.Mutex
	cfg      Config
	disks    []diskWindows
	budgets  [numTargets]float64
	machines [numTargets]machine
	round    int // rounds observed (EndRound calls)

	history ring.Buffer[Transition] // last cfg.History alert transitions
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
	a := &Auditor{
		cfg:     cfg,
		disks:   make([]diskWindows, disks),
		history: ring.New[Transition](cfg.History),
	}
	for d := range a.disks {
		a.disks[d].ring = make([]slot, cfg.SlowWindow)
	}
	return a, nil
}

// Config returns the effective (defaulted) configuration.
func (a *Auditor) Config() Config {
	if a == nil {
		return Config{Disabled: true}
	}
	return a.cfg
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
	for i := range a.machines {
		a.machines[i].fast, a.machines[i].slow = critCache{}, critCache{}
	}
	a.mu.Unlock()
}

// ObserveDisk folds one loaded disk's sweep outcome for the current round
// into its window: whether the sweep was late (overran the round length,
// or the disk was down), and the fragment counts b_glitch is measured
// against. Call at most once per disk per round, from the round loop;
// zero allocations.
func (a *Auditor) ObserveDisk(disk int, late bool, requests, glitches int) {
	if a == nil || disk < 0 || disk >= len(a.disks) {
		return
	}
	a.mu.Lock()
	cur := &a.disks[disk].cur
	cur.loaded++
	if late {
		cur.late++
	}
	cur.requests += int64(requests)
	cur.glitches += int64(glitches)
	a.mu.Unlock()
}

// counts returns target i's violations and population over the fast and
// slow windows: late over loaded disk-rounds, or glitched over served
// fragments.
func counts(i int, fast, slow *slot) (vF, pF, vS, pS int64) {
	if i == idxLate {
		return fast.late, fast.loaded, slow.late, slow.loaded
	}
	return fast.glitches, fast.requests, slow.glitches, slow.requests
}

// ratio returns num/den, 0 when the denominator is empty.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// BurnRate converts a measured rate and its budget into a burn rate,
// capped at MaxBurn (a violation against a zero budget is "infinitely"
// over budget, but JSON needs a finite number).
func BurnRate(measured, budget float64) float64 {
	if budget > 0 {
		r := measured / budget
		if r > MaxBurn {
			return MaxBurn
		}
		return r
	}
	if measured > 0 {
		return MaxBurn
	}
	return 0
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
	var aggF, aggS slot
	for d := range a.disks {
		dw := &a.disks[d]
		dw.rotate(a.cfg.FastWindow)
		aggF.add(dw.fast)
		aggS.add(dw.slow)
	}
	round := a.round
	a.round++

	ev := Evaluation{Round: round}
	evals := [numTargets]*TargetEval{&ev.Late, &ev.Glitch}
	for i, te := range evals {
		m := &a.machines[i]
		te.Budget = a.budgets[i]
		vF, pF, vS, pS := counts(i, &aggF, &aggS)
		te.MeasuredFast = ratio(vF, pF)
		te.MeasuredSlow = ratio(vS, pS)
		te.BurnFast = BurnRate(te.MeasuredFast, te.Budget)
		te.BurnSlow = BurnRate(te.MeasuredSlow, te.Budget)
		from, changed := m.step(round,
			m.fast.rejects(vF, pF, te.Budget), m.slow.rejects(vS, pS, te.Budget),
			te.BurnFast < 1, a.cfg)
		te.State = m.state
		te.Transition = changed
		te.From = from
		if changed {
			*a.history.Next() = Transition{
				Round:    round,
				Target:   TargetName(i),
				From:     from,
				To:       te.State,
				BurnFast: te.BurnFast,
				BurnSlow: te.BurnSlow,
				Measured: te.MeasuredFast,
				Budget:   te.Budget,
			}
		}
	}
	a.mu.Unlock()
	return ev
}

// WindowEstimate is one window's estimate for one target.
type WindowEstimate struct {
	// Window names the window ("fast" or "slow"); Rounds is its span.
	Window string `json:"window"`
	Rounds int    `json:"rounds"`
	// Violations and Population are the estimate's numerator and
	// denominator: late disk-rounds over loaded disk-rounds for the late
	// target, glitched fragments over served fragments for glitch.
	Violations int64 `json:"violations"`
	Population int64 `json:"population"`
	// Critical is the count at which the window rejects the budget:
	// the least k with P[Bin(Population, budget) ≥ k] ≤ Alpha.
	Critical int64 `json:"critical"`
	// Measured is Violations/Population; Burn is Measured/budget.
	Measured float64 `json:"measured"`
	Burn     float64 `json:"burn"`
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
	// estimates; History the retained transitions, oldest first.
	Targets []TargetStatus `json:"targets"`
	Disks   []DiskEstimate `json:"disks"`
	History []Transition   `json:"history"`
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
	var aggF, aggS slot
	for d := range a.disks {
		dw := &a.disks[d]
		aggF.add(dw.fast)
		aggS.add(dw.slow)
		st.Disks[d] = DiskEstimate{
			Disk:       d,
			PLateFast:  ratio(dw.fast.late, dw.fast.loaded),
			PLateSlow:  ratio(dw.slow.late, dw.slow.loaded),
			GlitchFast: ratio(dw.fast.glitches, dw.fast.requests),
			GlitchSlow: ratio(dw.slow.glitches, dw.slow.requests),
		}
	}
	for i := range st.Targets {
		m := &a.machines[i]
		ts := TargetStatus{
			Target:        TargetName(i),
			Budget:        a.budgets[i],
			State:         m.state,
			SinceRound:    m.since,
			FiredTotal:    m.fired,
			ResolvedTotal: m.resolved,
		}
		vF, pF, vS, pS := counts(i, &aggF, &aggS)
		mF, mS := ratio(vF, pF), ratio(vS, pS)
		ts.Windows = []WindowEstimate{
			{Window: "fast", Rounds: a.cfg.FastWindow, Violations: vF, Population: pF,
				Critical: chernoff.BinomialCritical(pF, ts.Budget, Alpha),
				Measured: mF, Burn: BurnRate(mF, ts.Budget)},
			{Window: "slow", Rounds: a.cfg.SlowWindow, Violations: vS, Population: pS,
				Critical: chernoff.BinomialCritical(pS, ts.Budget, Alpha),
				Measured: mS, Burn: BurnRate(mS, ts.Budget)},
		}
		st.Targets[i] = ts
	}
	st.History = a.history.AppendTo(make([]Transition, 0, a.history.Len()))
	return st
}
