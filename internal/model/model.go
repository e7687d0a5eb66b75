// Package model implements the paper's analytic model (§3) and the
// admission-control machinery built on it (§5).
//
// The total service time of one round with N requests on one disk is
//
//	T_N = SEEK(N) + Σᵢ T_rot,i + Σᵢ T_trans,i                 (3.1.1)
//
// with SEEK(N) the Oyang worst-case SCAN seek constant, T_rot,i ~
// Uniform(0, ROT), and T_trans,i Gamma distributed. On a multi-zone disk
// the transfer time of a request is S/R with S the fragment size and R the
// zone-dependent transfer rate; its first two moments are matched by a
// Gamma law (§3.2) so the Laplace–Stieltjes machinery of §3.1 applies
// unchanged. Chernoff bounds on T_N yield the round-lateness bound
// b_late(N, t) (3.2.12), per-stream glitch probability bounds (3.3.3), the
// M-round glitch-count bound p_error (3.3.5), and the admission limits
// N_max (3.1.7, 3.3.6).
package model

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mzqos/internal/chernoff"
	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/lst"
	"mzqos/internal/workload"
)

// Errors reported by the model.
var (
	// ErrConfig is returned for invalid model configurations.
	ErrConfig = errors.New("model: invalid configuration")
	// ErrOverload is returned when even a single stream cannot meet the
	// requested guarantee.
	ErrOverload = errors.New("model: guarantee unattainable even for N=1")
	// ErrNoSizeModel is returned by operations that need the fragment-size
	// distribution when the model was built from transfer moments alone.
	ErrNoSizeModel = errors.New("model: operation requires a fragment-size model")
)

// RateMoments selects how the zone-dependent transfer-rate moments are
// computed when translating fragment sizes into transfer times.
type RateMoments int

const (
	// RateDiscrete uses the exact Z-zone mixture (default).
	RateDiscrete RateMoments = iota
	// RateContinuous uses the paper's continuous-rate approximation
	// (eq. 3.2.5/3.2.6); provided for the approximation ablation.
	RateContinuous
)

// TransferMode selects the transfer-time transform fed into the Chernoff
// machinery.
type TransferMode int

const (
	// TransferGammaApprox is the paper's approach (§3.2): match the first
	// two moments of the transfer time with a Gamma law and use its
	// closed-form transform (eq. 3.2.10). Default.
	TransferGammaApprox TransferMode = iota
	// TransferExactMixture uses the exact transform of the zoned transfer
	// time: a request hitting zone i has T = S/R_i, so for Gamma sizes the
	// transform is the finite mixture Σᵢ P[zone i]·(α_i/(α_i+s))^β with
	// α_i = α_S·R_i — closed form with no approximation. An extension
	// beyond the paper, used to quantify what its Gamma matching costs.
	// Requires a Gamma fragment-size model.
	TransferExactMixture
)

// Config assembles a model instance.
type Config struct {
	// Disk is the drive geometry (required).
	Disk *disk.Geometry
	// Sizes is the fragment-size model (required unless TransferMean and
	// TransferVar are set directly).
	Sizes workload.SizeModel
	// RoundLength is the scheduling round length t in seconds (required).
	RoundLength float64
	// RateMode selects discrete or continuous rate moments.
	RateMode RateMoments
	// Mode selects the Gamma approximation (paper) or the exact
	// zone-mixture transform (extension).
	Mode TransferMode
	// Access optionally replaces the uniform-over-sectors placement with
	// a zone-aware access profile (organ-pipe, hot-on-outer, ...); nil
	// means the paper's uniform placement. Ignored when RateContinuous is
	// selected (the continuous approximation assumes uniform placement).
	Access disk.AccessProfile
	// TransferMean/TransferVar, when both positive, override the
	// size-derived transfer-time moments (seconds, seconds²). This is how
	// the §3.1 worked example specifies its workload.
	TransferMean float64
	TransferVar  float64
}

// maxStreamsPerDisk bounds the admission search cap: a configuration
// whose cap would pass it (rounds of many minutes on the paper's disk, or
// transfers of nanoseconds) is refused by New rather than walked.
const maxStreamsPerDisk = 1 << 16

// Model computes the paper's service-quality bounds for one disk.
//
// Concurrency: a Model is safe for any number of concurrent callers.
// Per-N lateness results (Chernoff bound plus its optimizing θ) and their
// glitch prefix sums live in an immutable chain snapshot published through
// an atomic pointer, so the read path — every memoized bound, glitch sum,
// and admission walk — is lock-free. Extending the chain to a new N is
// serialized by a mutex (single-flight), and each extension is computed
// warm-started from its predecessor's θ, so a given Model returns
// bit-identical values no matter how calls interleave. Bounds at any other
// deadline — a buffered client's (1+s)·t, a GSS subperiod's t/G — are read
// off a chain of the caller's own, grown the same way and then dropped.
type Model struct {
	cfg       Config
	transGam  lst.Gamma     // moment-matched transfer-time transform (3.2.10)
	transLST  lst.Transform // transform actually used by the bounds
	transMean float64
	transVar  float64
	hasSizes  bool
	// maxSearchN caps admission searches at 4t/E[T_trans] + 64: a round
	// never holds more requests than t/E[T_trans], so the cap is generous.
	maxSearchN int

	mu    sync.Mutex // serializes chain extension; readers never take it
	chain atomic.Pointer[lateChain]
}

// lateChain holds the Chernoff results at one deadline d: res[n] is the
// result for P[T_n ≥ d] (index 0 is a zero placeholder) and prefix[n] =
// Σ_{k=1..n} res[k].Bound, the numerator of the glitch bound (3.3.3). The
// model's chain at d = t is published as immutable snapshots: a newer one
// extends an older one in place past its length, so entries below a
// snapshot's length never change.
type lateChain struct {
	deadline float64
	res      []chernoff.Result
	prefix   []float64
}

// newChain returns an empty chain at deadline d.
func newChain(d float64) *lateChain {
	return &lateChain{deadline: d, res: make([]chernoff.Result, 1), prefix: make([]float64, 1)}
}

// New validates cfg and precomputes the transfer-time Gamma matching.
func New(cfg Config) (*Model, error) {
	if cfg.Disk == nil {
		return nil, fmt.Errorf("%w: nil disk geometry", ErrConfig)
	}
	// The one check that a geometry is usable: server.New reaches it too.
	if cfg.Disk.Cylinders() == 0 {
		return nil, fmt.Errorf("%w: disk geometry %q has no cylinders: build it with disk.New", ErrConfig, cfg.Disk.Name)
	}
	if !(cfg.RoundLength > 0) || math.IsInf(cfg.RoundLength, 1) {
		return nil, fmt.Errorf("%w: round length must be positive and finite", ErrConfig)
	}
	m := &Model{cfg: cfg}
	m.chain.Store(newChain(cfg.RoundLength))
	switch {
	case cfg.TransferMean > 0 && cfg.TransferVar > 0:
		m.transMean, m.transVar = cfg.TransferMean, cfg.TransferVar
		m.hasSizes = cfg.Sizes.Dist != nil
	case cfg.Sizes.Dist != nil:
		mean, variance, err := transferMoments(cfg)
		if err != nil {
			return nil, err
		}
		m.transMean, m.transVar = mean, variance
		m.hasSizes = true
	default:
		return nil, fmt.Errorf("%w: need a size model or explicit transfer moments", ErrConfig)
	}
	// The cap is computed in float, so a huge t/E[T_trans] is refused here
	// instead of overflowing int.
	perRound := 4 * cfg.RoundLength / m.transMean
	if !(perRound <= maxStreamsPerDisk-64) {
		return nil, fmt.Errorf("%w: round length %g s over %g s transfers caps admission past %d streams per disk",
			ErrConfig, cfg.RoundLength, m.transMean, maxStreamsPerDisk)
	}
	m.maxSearchN = int(perRound) + 64
	g, err := dist.GammaFromMeanVar(m.transMean, m.transVar)
	if err != nil {
		return nil, fmt.Errorf("%w: transfer moments not matchable: %v", ErrConfig, err)
	}
	m.transGam = lst.Gamma{Shape: g.Shape, Rate: g.Rate}
	m.transLST = m.transGam
	if cfg.Mode == TransferExactMixture {
		mix, err := exactMixtureTransform(cfg)
		if err != nil {
			return nil, err
		}
		m.transLST = mix
	}
	return m, nil
}

// exactMixtureTransform builds the exact transfer-time transform for Gamma
// fragment sizes on a zoned disk: hitting zone i (probability C_i·tracks_i
// divided by capacity) turns a size Gamma(β, α_S) into a time
// Gamma(β, α_S·R_i), so the transform is a finite Gamma mixture.
func exactMixtureTransform(cfg Config) (lst.Transform, error) {
	sg, ok := cfg.Sizes.Dist.(dist.Gamma)
	if !ok {
		return nil, fmt.Errorf("%w: TransferExactMixture requires a Gamma fragment-size model", ErrConfig)
	}
	if cfg.TransferMean > 0 || cfg.TransferVar > 0 {
		return nil, fmt.Errorf("%w: TransferExactMixture is incompatible with explicit transfer moments", ErrConfig)
	}
	g := cfg.Disk
	access := cfg.Access
	if access == nil {
		access = disk.UniformAccess(g)
	} else if !access.Valid(g) {
		return nil, fmt.Errorf("%w: access profile does not match the geometry", ErrConfig)
	}
	weights := make([]float64, g.ZoneCount())
	parts := make([]lst.Transform, g.ZoneCount())
	for i := range parts {
		weights[i] = access[i]
		zt, err := lst.NewGamma(sg.Shape, sg.Rate*g.TransferRate(i))
		if err != nil {
			return nil, err
		}
		parts[i] = zt
	}
	mix, err := lst.NewMixture(weights, parts)
	if err != nil {
		return nil, err
	}
	return mix, nil
}

// transferMoments computes E[T_trans] and Var[T_trans] from the size model
// and the zone-rate distribution: with S ⟂ R,
//
//	E[T]  = E[S]·E[1/R]
//	E[T²] = E[S²]·E[1/R²]
func transferMoments(cfg Config) (mean, variance float64, err error) {
	es := cfg.Sizes.Mean()
	vs := cfg.Sizes.Var()
	if !(es > 0) || math.IsNaN(vs) || vs < 0 || math.IsInf(vs, 1) {
		return 0, 0, fmt.Errorf("%w: size model needs positive mean and finite variance", ErrConfig)
	}
	var inv, inv2 float64
	switch {
	case cfg.RateMode == RateContinuous:
		inv, inv2 = cfg.Disk.ContinuousInvRateMoments()
	case cfg.Access != nil:
		if !cfg.Access.Valid(cfg.Disk) {
			return 0, 0, fmt.Errorf("%w: access profile does not match the geometry", ErrConfig)
		}
		inv, inv2 = cfg.Disk.InvRateMomentsUnder(cfg.Access)
	default:
		inv, inv2 = cfg.Disk.InvRateMoments()
	}
	es2 := vs + es*es
	mean = es * inv
	variance = es2*inv2 - mean*mean
	if !(variance > 0) {
		// CBR sizes on a single-zone disk: give the matcher a tiny
		// variance so the Gamma degenerates gracefully toward the mean.
		variance = mean * mean * 1e-9
	}
	return mean, variance, nil
}

// RoundLength returns the configured round length t.
func (m *Model) RoundLength() float64 { return m.cfg.RoundLength }

// TransferMoments returns the modeled E[T_trans] and Var[T_trans].
func (m *Model) TransferMoments() (mean, variance float64) {
	return m.transMean, m.transVar
}

// SeekBound returns SEEK(n), the Oyang worst-case total SCAN seek time.
func (m *Model) SeekBound(n int) float64 { return m.cfg.Disk.SeekBound(n) }

// RoundTransform returns the LST of T_N for n concurrent requests
// (eq. 3.1.4 / 3.2.11).
func (m *Model) RoundTransform(n int) (lst.Transform, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative stream count", ErrConfig)
	}
	rot, err := lst.NewUniform(0, m.cfg.Disk.RotationTime)
	if err != nil {
		return nil, err
	}
	rotN, err := lst.NewIID(rot, n)
	if err != nil {
		return nil, err
	}
	trN, err := lst.NewIID(m.transLST, n)
	if err != nil {
		return nil, err
	}
	return lst.NewSum(lst.PointMass{C: m.SeekBound(n)}, rotN, trN), nil
}

// RoundMoments returns the mean and variance of T_N under the model.
func (m *Model) RoundMoments(n int) (mean, variance float64, err error) {
	tr, err := m.RoundTransform(n)
	if err != nil {
		return 0, 0, err
	}
	return tr.Mean(), tr.Var(), nil
}
