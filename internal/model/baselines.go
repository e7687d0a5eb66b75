package model

import (
	"fmt"
	"math"

	"mzqos/internal/chernoff"
	"mzqos/internal/numeric"
)

// WorstCaseSpec parameterizes the deterministic worst-case admission
// baseline of eq. (4.1).
type WorstCaseSpec struct {
	// SizeQuantile is the fragment-size percentile used as the "maximum"
	// request size (the paper uses 0.99, and 0.95 for its optimistic
	// variant).
	SizeQuantile float64
	// UseMeanRate, when true, replaces the pessimistic innermost-zone
	// transfer rate C_min/ROT by the mean rate (C_min+C_max)/(2·ROT).
	UseMeanRate bool
}

// WorstCaseNMax returns the deterministic worst-case stream limit
//
//	N_max^wc = ⌊ t / (T_rot^max + T_seek^max + T_trans^max) ⌋    (4.1)
//
// with T_rot^max = ROT, T_seek^max the full-stroke seek, and T_trans^max
// the chosen size quantile divided by the chosen rate. Requires a
// fragment-size model.
func (m *Model) WorstCaseNMax(spec WorstCaseSpec) (int, error) {
	if !m.hasSizes {
		return 0, ErrNoSizeModel
	}
	if !(spec.SizeQuantile > 0 && spec.SizeQuantile < 1) {
		return 0, fmt.Errorf("%w: size quantile must be in (0,1)", ErrConfig)
	}
	smax, err := m.cfg.Sizes.Quantile(spec.SizeQuantile)
	if err != nil {
		return 0, err
	}
	rate := m.cfg.Disk.MinRate()
	if spec.UseMeanRate {
		rate = (m.cfg.Disk.MinRate() + m.cfg.Disk.MaxRate()) / 2
	}
	perRequest := m.cfg.Disk.RotationTime + m.cfg.Disk.Seek.MaxTime(m.cfg.Disk.Cylinders()) + smax/rate
	return int(m.cfg.RoundLength / perRequest), nil
}

// LateBoundChebyshev returns the Cantelli–Chebyshev bound on
// P[T_N >= t], the coarser alternative of [CL96] that the paper's Chernoff
// approach supersedes.
func (m *Model) LateBoundChebyshev(n int) (float64, error) {
	mean, variance, err := m.RoundMoments(n)
	if err != nil {
		return 0, err
	}
	return chernoff.Chebyshev(mean, variance, m.cfg.RoundLength), nil
}

// LateEstimateCLT returns the central-limit-theorem estimate of
// P[T_N >= t] used by [CZ94, VGG94]. It is an approximation, not a bound:
// at realistic N it can (and in the paper's regime does) underestimate the
// true lateness probability.
func (m *Model) LateEstimateCLT(n int) (float64, error) {
	mean, variance, err := m.RoundMoments(n)
	if err != nil {
		return 0, err
	}
	return chernoff.CLT(mean, variance, m.cfg.RoundLength), nil
}

// IndependentSeekMoments returns the mean and variance of a single seek
// time when requests are positioned independently and uniformly over the
// cylinders and served in arrival order (no SCAN) — the disk-arm model of
// [CL96, CZ94]. The seek distance between two independent uniform
// positions has the triangular density 2(1 − d/CYL)/CYL on [0, CYL].
func (m *Model) IndependentSeekMoments() (mean, variance float64, err error) {
	cyl := float64(m.cfg.Disk.Cylinders())
	curve := m.cfg.Disk.Seek
	pdf := func(d float64) float64 { return 2 * (1 - d/cyl) / cyl }
	// Substitute d = u² so the √d regime of the seek curve becomes smooth
	// in u; otherwise the kink at d→0 starves adaptive quadrature.
	mean, err = numeric.Simpson(func(u float64) float64 {
		d := u * u
		return curve.Time(d) * pdf(d) * 2 * u
	}, 0, math.Sqrt(cyl), 1e-12)
	if err != nil {
		return 0, 0, err
	}
	second, err := numeric.Simpson(func(u float64) float64 {
		d := u * u
		s := curve.Time(d)
		return s * s * pdf(d) * 2 * u
	}, 0, math.Sqrt(cyl), 1e-13)
	if err != nil {
		return 0, 0, err
	}
	return mean, second - mean*mean, nil
}

// IndependentSeekRoundMoments returns the mean and variance of the total
// round time under the independent-seek model: n seeks with the moments of
// IndependentSeekMoments replace the constant SCAN bound. Used by the
// SCAN-vs-independent-seeks ablation (A2) paired with Chebyshev or CLT.
func (m *Model) IndependentSeekRoundMoments(n int) (mean, variance float64, err error) {
	sm, sv, err := m.IndependentSeekMoments()
	if err != nil {
		return 0, 0, err
	}
	rot := m.cfg.Disk.RotationTime
	nf := float64(n)
	mean = nf * (sm + rot/2 + m.transMean)
	variance = nf * (sv + rot*rot/12 + m.transVar)
	return mean, variance, nil
}

// LateEstimateIndependentCLT returns the CLT estimate of lateness under
// the independent-seek model — the combination the paper attributes to
// [CZ94]: independent seeks plus a normal approximation of the total.
func (m *Model) LateEstimateIndependentCLT(n int) (float64, error) {
	mean, variance, err := m.IndependentSeekRoundMoments(n)
	if err != nil {
		return 0, err
	}
	return chernoff.CLT(mean, variance, m.cfg.RoundLength), nil
}

// LateBoundIndependentChebyshev returns the Chebyshev bound on lateness
// under the independent-seek model — the combination the paper attributes
// to [CL96].
func (m *Model) LateBoundIndependentChebyshev(n int) (float64, error) {
	mean, variance, err := m.IndependentSeekRoundMoments(n)
	if err != nil {
		return 0, err
	}
	return chernoff.Chebyshev(mean, variance, m.cfg.RoundLength), nil
}
