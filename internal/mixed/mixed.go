// Package mixed extends the stochastic service model to mixed workloads:
// continuous-data streams sharing each disk with conventional "discrete"
// requests (HTML documents, images, index lookups). This is the research
// direction the paper names in §6 ("we advocate sharing disks between
// continuous and discrete data") and the setting of its predecessor
// [NMW97].
//
// The scheme reserves a fraction of every round for discrete service: the
// continuous requests are admitted against an effective round of
// (1−reserve)·t, preserving the paper's Chernoff guarantee machinery
// unchanged, and the reserved tail of each round drains a FCFS queue of
// discrete requests. Discrete response times are estimated with an
// M/G/1-with-vacations approximation (the continuous period acts as a
// server vacation once per round) and validated by the companion
// simulator in this package.
package mixed

import (
	"errors"
	"fmt"
	"math"

	"mzqos/internal/disk"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// ErrConfig is returned for invalid mixed-workload configurations.
var ErrConfig = errors.New("mixed: invalid configuration")

// ErrUnstable is returned when the discrete load exceeds the reserved
// service capacity.
var ErrUnstable = errors.New("mixed: discrete load exceeds reserved capacity")

// Config describes one disk of a mixed-workload server.
type Config struct {
	// Disk is the drive geometry.
	Disk *disk.Geometry
	// RoundLength is the full round length t in seconds.
	RoundLength float64
	// Reserve is the fraction of each round set aside for discrete
	// service, in [0, 1).
	Reserve float64
	// ContinuousSizes is the fragment-size law of the streams.
	ContinuousSizes workload.SizeModel
	// DiscreteSizes is the request-size law of the discrete workload
	// (typically far smaller than fragments).
	DiscreteSizes workload.SizeModel
	// DiscreteRate is the Poisson arrival rate of discrete requests, in
	// requests per second.
	DiscreteRate float64
}

func (c Config) validate() error {
	if c.Disk == nil || !(c.RoundLength > 0) {
		return ErrConfig
	}
	if c.Disk.Cylinders() == 0 {
		return fmt.Errorf("%w: disk geometry %q has no cylinders: build it with disk.New", ErrConfig, c.Disk.Name)
	}
	if !(c.Reserve >= 0 && c.Reserve < 1) {
		return fmt.Errorf("%w: reserve must be in [0,1)", ErrConfig)
	}
	if c.ContinuousSizes.Dist == nil || c.DiscreteSizes.Dist == nil {
		return fmt.Errorf("%w: both size models are required", ErrConfig)
	}
	if !(c.DiscreteRate >= 0) {
		return fmt.Errorf("%w: negative discrete rate", ErrConfig)
	}
	return nil
}

// Model couples the continuous-service guarantee machinery with a
// discrete-response estimate.
type Model struct {
	cfg  Config
	cont *model.Model
	// per-discrete-request service moments (seek + rotation + transfer).
	dMean, dVar float64
}

// New builds the mixed model. The continuous submodel is evaluated against
// the effective round (1−reserve)·t, so every guarantee it emits holds
// even when the reserved discrete period is fully used.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cont, err := model.New(model.Config{
		Disk:        cfg.Disk,
		Sizes:       cfg.ContinuousSizes,
		RoundLength: cfg.RoundLength * (1 - cfg.Reserve),
	})
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, cont: cont}
	if err := m.discreteServiceMoments(); err != nil {
		return nil, err
	}
	return m, nil
}

// discreteServiceMoments computes the mean and variance of one discrete
// request's service time under random (independent-seek) positioning:
// discrete requests are not part of the SCAN sweep, so each pays a random
// seek, half a rotation on average, and a zone-dependent transfer.
func (m *Model) discreteServiceMoments() error {
	sm, sv, err := m.cont.IndependentSeekMoments()
	if err != nil {
		return err
	}
	rot := m.cfg.Disk.RotationTime
	inv, inv2 := m.cfg.Disk.InvRateMoments()
	es := m.cfg.DiscreteSizes.Mean()
	es2 := m.cfg.DiscreteSizes.Var() + es*es
	tMean := es * inv
	tVar := es2*inv2 - tMean*tMean
	if tVar < 0 {
		tVar = 0
	}
	m.dMean = sm + rot/2 + tMean
	m.dVar = sv + rot*rot/12 + tVar
	return nil
}

// ContinuousNMax returns the admissible stream count under a per-round
// lateness threshold, honouring the reserve.
func (m *Model) ContinuousNMax(delta float64) (int, error) {
	return m.cont.NMaxLate(delta)
}

// DiscreteUtilization returns ρ_eff = λ·E[D] / reserve: the discrete
// service demand relative to the capacity actually reserved for it.
func (m *Model) DiscreteUtilization() float64 {
	if m.cfg.Reserve == 0 {
		if m.cfg.DiscreteRate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return m.cfg.DiscreteRate * m.dMean / m.cfg.Reserve
}

// DiscreteResponseEstimate returns the approximate mean response time
// (waiting + service) of a discrete request under the M/G/1-with-vacations
// decomposition: the FCFS M/G/1 waiting time at effective utilization
// ρ_eff, plus the mean residual of the continuous period (the "vacation"
// of deterministic length V = (1−reserve)·t once per round, residual V/2,
// weighted by the 1−reserve fraction of time vacations occupy), plus the
// service itself:
//
//	E[R] ≈ λ_eff·E[D²] / (2(1−ρ_eff)) + (1−reserve)·V/2 + E[D]
//
// It returns ErrUnstable when ρ_eff >= 1.
func (m *Model) DiscreteResponseEstimate() (float64, error) {
	if m.cfg.DiscreteRate == 0 {
		return m.dMean, nil
	}
	rho := m.DiscreteUtilization()
	if rho >= 1 {
		return 0, ErrUnstable
	}
	// Effective arrival rate relative to the reserved capacity: the server
	// works on discrete requests only a `reserve` fraction of the time, so
	// in "discrete-server time" arrivals come at rate λ/reserve.
	lambdaEff := m.cfg.DiscreteRate / m.cfg.Reserve
	ed2 := m.dVar + m.dMean*m.dMean
	wait := lambdaEff * ed2 / (2 * (1 - rho))
	// A request arriving during the continuous period also waits out the
	// residual vacation; vacations of deterministic length V=(1−r)·t
	// occupy a (1−r) fraction of wall-clock time, with mean residual V/2.
	v := (1 - m.cfg.Reserve) * m.cfg.RoundLength
	wait += (1 - m.cfg.Reserve) * v / 2
	return wait + m.dMean, nil
}

// MaxDiscreteRate returns the highest stable Poisson arrival rate at the
// configured reserve (ρ_eff < target, e.g. 0.8 for headroom).
func (m *Model) MaxDiscreteRate(targetUtilization float64) (float64, error) {
	if !(targetUtilization > 0 && targetUtilization < 1) {
		return 0, fmt.Errorf("%w: target utilization must be in (0,1)", ErrConfig)
	}
	return targetUtilization * m.cfg.Reserve / m.dMean, nil
}

// TradeOffPoint is one row of the reserve sweep.
type TradeOffPoint struct {
	// Reserve is the evaluated reserve fraction.
	Reserve float64
	// ContinuousNMax is the admissible stream count at delta.
	ContinuousNMax int
	// DiscreteRho is the discrete utilization at the configured rate.
	DiscreteRho float64
	// DiscreteResponse is the estimated mean response time in seconds
	// (NaN when unstable).
	DiscreteResponse float64
}

// TradeOff sweeps the reserve fraction and reports, for each point, the
// continuous admission limit and the discrete response estimate — the
// capacity-planning curve for mixed-workload servers.
func TradeOff(cfg Config, reserves []float64, delta float64) ([]TradeOffPoint, error) {
	out := make([]TradeOffPoint, 0, len(reserves))
	for _, r := range reserves {
		c := cfg
		c.Reserve = r
		m, err := New(c)
		if err != nil {
			return nil, err
		}
		nmax, err := m.ContinuousNMax(delta)
		if err != nil {
			if errors.Is(err, model.ErrOverload) {
				nmax = 0
			} else {
				return nil, err
			}
		}
		p := TradeOffPoint{
			Reserve:        r,
			ContinuousNMax: nmax,
			DiscreteRho:    m.DiscreteUtilization(),
		}
		resp, err := m.DiscreteResponseEstimate()
		if err != nil {
			p.DiscreteResponse = math.NaN()
		} else {
			p.DiscreteResponse = resp
		}
		out = append(out, p)
	}
	return out, nil
}
