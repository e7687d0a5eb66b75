// Package fault provides deterministic, seedable fault injection for the
// disk service path: latency inflation, zone-rate degradation, transient
// read errors with bounded in-round retries, and full disk failure with
// recovery. The same Plan drives both the striped server
// (internal/server) and the detailed simulator (internal/sim), so
// analytic-vs-simulated comparisons run under identical fault schedules.
//
// Stochastic network calculus treats an impaired disk as a service-curve
// degradation whose tail bound must be re-derived against the degraded
// server; DegradeGeometry produces exactly that impaired hardware
// description, so the existing admission model (internal/model) computes
// the degraded N_max with no new math.
//
// Determinism: every quantity an injector produces is a pure function of
// (Plan, disk, round, request, attempt). Transient read-error draws use a
// splitmix64-style hash of those coordinates rather than a shared RNG
// stream, so consulting the injector never perturbs the caller's random
// sequence and two components replaying the same plan see byte-identical
// fault timelines.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"mzqos/internal/disk"
)

// ErrPlan is returned for invalid fault plans.
var ErrPlan = errors.New("fault: invalid plan")

// Kind discriminates the fault types.
type Kind int

const (
	// Latency inflates every service phase (seek, rotational latency,
	// transfer) of the disk by Factor — a slow or congested drive.
	Latency Kind = iota
	// ZoneRate multiplies the effective transfer rate of every zone by
	// Factor (< 1 degrades), shifting the multi-zone model's rate
	// distribution without touching seeks or rotation — media wear,
	// thermal throttling, or a saturated bus.
	ZoneRate
	// ReadError makes each fragment read fail independently with
	// probability Prob; each failure costs one full extra revolution and
	// is retried at most Retries times within the round. A read that
	// exhausts its retries loses the fragment (a glitch for its stream).
	ReadError
	// Failure takes the disk fully offline for the interval: nothing is
	// served and every due fragment is lost. Service resumes when the
	// interval ends (recovery).
	Failure
)

// String names the kind (also the leading token of the ParsePlan syntax).
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case ZoneRate:
		return "rate"
	case ReadError:
		return "errors"
	case Failure:
		return "fail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind by name, so serialized plans (the /faults
// endpoint, config files) read as the ParsePlan syntax.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the ParsePlan kind tokens (including aliases like
// "lat" and "down") or a bare integer.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n int
		if err := json.Unmarshal(b, &n); err != nil {
			return fmt.Errorf("%w: kind %s", ErrPlan, b)
		}
		*k = Kind(n)
		return nil
	}
	kind, err := kindFromString(s)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// AllDisks as a Fault.Disk applies the fault to every disk in the array.
const AllDisks = -1

// MaxRetries is the most retries a ReadError fault may allow. Each retry
// costs a full revolution, so a one-second round on the Viking holds
// 1/0.00834 ≈ 120 of them: a larger count buys nothing a round can use and
// lets one read spin without end. 255 also fits the flight recorder's
// one-byte retries count.
const MaxRetries = 255

// Fault is one scheduled perturbation of the service path over a
// half-open round interval [From, Until). Until == 0 means open-ended.
type Fault struct {
	// Kind selects the perturbation.
	Kind Kind `json:"kind"`
	// Disk is the target disk index, or AllDisks (-1) for the whole array.
	Disk int `json:"disk"`
	// From is the first faulty round; Until is the first healthy round
	// again (half-open). Until == 0 leaves the fault active forever.
	From  int `json:"from"`
	Until int `json:"until"`
	// Factor scales service latency (Latency, > 0; 2 doubles every phase)
	// or the effective transfer rate (ZoneRate, in (0, 1] to degrade).
	Factor float64 `json:"factor,omitempty"`
	// Prob is the per-read transient-error probability (ReadError).
	Prob float64 `json:"prob,omitempty"`
	// Retries bounds the in-round retries after a read error (ReadError),
	// at most MaxRetries.
	Retries int `json:"retries,omitempty"`
}

// activeAt reports whether the fault covers (disk, round).
func (f Fault) activeAt(d, round int) bool {
	if f.Disk != AllDisks && f.Disk != d {
		return false
	}
	return round >= f.From && (f.Until == 0 || round < f.Until)
}

func (f Fault) validate(disks int) error {
	if f.Disk != AllDisks && (f.Disk < 0 || (disks > 0 && f.Disk >= disks)) {
		return fmt.Errorf("%w: disk %d out of range", ErrPlan, f.Disk)
	}
	if f.From < 0 || (f.Until != 0 && f.Until <= f.From) {
		return fmt.Errorf("%w: interval [%d, %d)", ErrPlan, f.From, f.Until)
	}
	switch f.Kind {
	case Latency:
		if !(f.Factor > 0) {
			return fmt.Errorf("%w: latency factor %g must be positive", ErrPlan, f.Factor)
		}
	case ZoneRate:
		if !(f.Factor > 0) {
			return fmt.Errorf("%w: rate factor %g must be positive", ErrPlan, f.Factor)
		}
	case ReadError:
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("%w: error probability %g outside [0, 1]", ErrPlan, f.Prob)
		}
		if f.Retries < 0 || f.Retries > MaxRetries {
			return fmt.Errorf("%w: retries %d outside [0, %d]", ErrPlan, f.Retries, MaxRetries)
		}
	case Failure:
		// No parameters.
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrPlan, int(f.Kind))
	}
	return nil
}

// Plan is a deterministic fault schedule. Seed feeds the hash behind the
// transient read-error draws; the latency/rate/failure timeline does not
// depend on it.
type Plan struct {
	Seed   uint64  `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault against an array of the given width
// (disks <= 0 skips the upper disk-index check).
func (p Plan) Validate(disks int) error {
	for i, f := range p.Faults {
		if err := f.validate(disks); err != nil {
			return fmt.Errorf("fault %d (%s): %w", i, f.Kind, err)
		}
	}
	return nil
}

// Effects is the combined perturbation of one disk in one round.
// Overlapping faults compose: scales multiply, error probabilities combine
// as independent events, retries take the maximum, and any Failure wins.
type Effects struct {
	// LatencyScale multiplies seek, rotational latency, and transfer time.
	LatencyScale float64 `json:"latency_scale"`
	// RateScale multiplies the effective transfer rate (transfer time is
	// divided by it); values < 1 degrade.
	RateScale float64 `json:"rate_scale"`
	// ErrorProb is the per-read transient-error probability.
	ErrorProb float64 `json:"error_prob"`
	// Retries bounds in-round retries after a read error: the largest of
	// the active faults' validated Retries, so at most MaxRetries.
	Retries int `json:"retries"`
	// Failed marks the disk fully offline.
	Failed bool `json:"failed"`
}

// Identity returns the no-fault effects.
func Identity() Effects { return Effects{LatencyScale: 1, RateScale: 1} }

// Active reports whether the effects differ from a healthy disk.
func (e Effects) Active() bool {
	return e.Failed || e.LatencyScale != 1 || e.RateScale != 1 || e.ErrorProb > 0
}

// String names the active effect kinds compactly, e.g. "latency x10" or
// "rate x0.5+errors p=0.2" (empty for a healthy disk): the detail of a
// fault edge on the event timeline.
func (e Effects) String() string {
	var parts []string
	if e.Failed {
		parts = append(parts, "fail")
	}
	if e.LatencyScale != 1 {
		parts = append(parts, "latency x"+strconv.FormatFloat(e.LatencyScale, 'g', 3, 64))
	}
	if e.RateScale != 1 {
		parts = append(parts, "rate x"+strconv.FormatFloat(e.RateScale, 'g', 3, 64))
	}
	if e.ErrorProb > 0 {
		parts = append(parts, "errors p="+strconv.FormatFloat(e.ErrorProb, 'g', 3, 64))
	}
	return strings.Join(parts, "+")
}

// ExpectedRetries returns the expected number of extra revolutions a read
// pays under the transient-error regime: attempt k (1-based) is retried
// when attempts 1..k error, so E = Σ_{k=1..Retries} Prob^k.
func (e Effects) ExpectedRetries() float64 {
	sum, pk := 0.0, 1.0
	for k := 0; k < e.Retries; k++ {
		pk *= e.ErrorProb
		sum += pk
	}
	return sum
}

// Injector answers fault queries for a plan. A nil *Injector is a valid
// no-fault injector, so callers can thread it unconditionally.
type Injector struct {
	plan Plan
}

// NewInjector validates the plan (against disks drives; disks <= 0 skips
// the width check) and returns an injector for it.
func NewInjector(plan Plan, disks int) (*Injector, error) {
	if err := plan.Validate(disks); err != nil {
		return nil, err
	}
	p := plan
	p.Faults = append([]Fault(nil), plan.Faults...)
	return &Injector{plan: p}, nil
}

// Plan returns a copy of the schedule.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	p := in.plan
	p.Faults = append([]Fault(nil), in.plan.Faults...)
	return p
}

// EffectsAt returns the combined effects on disk d in the given round.
func (in *Injector) EffectsAt(d, round int) Effects {
	e := Identity()
	if in == nil {
		return e
	}
	for _, f := range in.plan.Faults {
		if !f.activeAt(d, round) {
			continue
		}
		switch f.Kind {
		case Latency:
			e.LatencyScale *= f.Factor
		case ZoneRate:
			e.RateScale *= f.Factor
		case ReadError:
			e.ErrorProb = 1 - (1-e.ErrorProb)*(1-f.Prob)
			if f.Retries > e.Retries {
				e.Retries = f.Retries
			}
		case Failure:
			e.Failed = true
		}
	}
	return e
}

// ReadError reports whether read attempt `attempt` (0-based) of request
// `request` on disk d in `round` suffers a transient error. The draw is a
// pure hash of (Seed, disk, round, request, attempt): deterministic,
// stream-independent, and identical across components replaying the plan.
func (in *Injector) ReadError(d, round, request, attempt int) bool {
	if in == nil {
		return false
	}
	p := in.EffectsAt(d, round).ErrorProb
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return hashUniform(in.plan.Seed, uint64(d), uint64(round), uint64(request), uint64(attempt)) < p
}

// hashUniform folds the coordinates through splitmix64 and maps the result
// to [0, 1).
func hashUniform(seed uint64, coords ...uint64) float64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, c := range coords {
		x = splitmix64(x + c)
	}
	return float64(splitmix64(x)>>11) / (1 << 53)
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DegradeGeometry derives the impaired hardware description the admission
// model should be re-evaluated against, mapping each fault effect onto the
// model quantity it perturbs:
//
//   - LatencyScale L multiplies the seek curve and the rotation time
//     (which also slows every zone's rate R_i = C_i/ROT by 1/L, i.e. all
//     three phases of eq. 3.1.1 stretch by L);
//   - RateScale R multiplies the per-zone track capacity, shifting the
//     zone-rate distribution of §3.2 without touching seek or rotation;
//   - expected retry revolutions E (ExpectedRetries) add E·ROT of mean
//     rotational delay per request, folded in by stretching the rotation
//     time to ROT·(1 + 2E) (Uniform(0, ROT·(1+2E)) has mean ROT/2 + E·ROT)
//     with the capacities re-scaled so zone rates are unaffected.
//
// A Failed disk has no finite-service description; callers must handle
// Effects.Failed before calling (DegradeGeometry returns an error).
func DegradeGeometry(g *disk.Geometry, e Effects) (*disk.Geometry, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil geometry", ErrPlan)
	}
	if e.Failed {
		return nil, fmt.Errorf("%w: a failed disk has no degraded geometry", ErrPlan)
	}
	if !(e.LatencyScale > 0) || !(e.RateScale > 0) {
		return nil, fmt.Errorf("%w: non-positive effect scales %+v", ErrPlan, e)
	}
	if !e.Active() {
		return g, nil
	}
	retryStretch := 1 + 2*e.ExpectedRetries()
	rot := g.RotationTime * e.LatencyScale * retryStretch
	zones := make([]disk.Zone, len(g.Zones))
	for i, z := range g.Zones {
		zones[i] = disk.Zone{
			Tracks: z.Tracks,
			// Rate_i = Capacity_i/ROT: scale capacity by RateScale for the
			// zone-rate fault and by retryStretch to cancel the retry
			// stretch of ROT, leaving rates slowed only by L and R.
			TrackCapacity: z.TrackCapacity * e.RateScale * retryStretch,
		}
	}
	seek := disk.SeekCurve{
		A1:        g.Seek.A1 * e.LatencyScale,
		B1:        g.Seek.B1 * e.LatencyScale,
		A2:        g.Seek.A2 * e.LatencyScale,
		B2:        g.Seek.B2 * e.LatencyScale,
		Threshold: g.Seek.Threshold,
	}
	return disk.New(g.Name+" [degraded]", rot, zones, seek)
}
