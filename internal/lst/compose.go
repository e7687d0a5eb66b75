package lst

import "math"

// Sum is the transform of a sum of independent variables: the product of
// the component transforms. It is how eq. (3.1.4) composes
// T_N*(s) = T_seek*(s)·(T_rot*(s))^N·(T_trans*(s))^N.
type Sum struct {
	parts []Transform
}

// NewSum returns the transform of the sum of independent variables with the
// given transforms.
func NewSum(parts ...Transform) Sum {
	cp := make([]Transform, len(parts))
	copy(cp, parts)
	return Sum{parts: cp}
}

// LogAt sums the component log-transforms.
func (s Sum) LogAt(x float64) float64 {
	var total float64
	for _, p := range s.parts {
		total += p.LogAt(x)
	}
	return total
}

// At multiplies the component transforms.
func (s Sum) At(x complex128) complex128 {
	total := complex(1, 0)
	for _, p := range s.parts {
		total *= p.At(x)
	}
	return total
}

// MaxTheta returns the minimum component abscissa.
func (s Sum) MaxTheta() float64 {
	m := math.Inf(1)
	for _, p := range s.parts {
		if mt := p.MaxTheta(); mt < m {
			m = mt
		}
	}
	return m
}

// Mean sums the component means.
func (s Sum) Mean() float64 {
	var m float64
	for _, p := range s.parts {
		m += p.Mean()
	}
	return m
}

// Var sums the component variances (independence).
func (s Sum) Var() float64 {
	var v float64
	for _, p := range s.parts {
		v += p.Var()
	}
	return v
}

// IID is the transform of the sum of N independent copies of a variable:
// (T*(s))^N, i.e. N·log T*(s) in log space. This expresses the N-fold
// convolutions of eq. (3.1.4) without materializing N transforms.
type IID struct {
	T Transform
	N int
}

// NewIID returns the transform of the N-fold independent sum of T.
func NewIID(t Transform, n int) (IID, error) {
	if n < 0 || t == nil {
		return IID{}, ErrParam
	}
	return IID{T: t, N: n}, nil
}

// LogAt returns N·log T*(s).
func (i IID) LogAt(s float64) float64 { return float64(i.N) * i.T.LogAt(s) }

// At returns T*(s)^N.
func (i IID) At(s complex128) complex128 {
	r := complex(1, 0)
	base := i.T.At(s)
	for k := 0; k < i.N; k++ {
		r *= base
	}
	return r
}

// MaxTheta returns the component abscissa (unchanged by convolution).
func (i IID) MaxTheta() float64 {
	if i.N == 0 {
		return math.Inf(1)
	}
	return i.T.MaxTheta()
}

// Mean returns N·E[X].
func (i IID) Mean() float64 { return float64(i.N) * i.T.Mean() }

// Var returns N·Var[X].
func (i IID) Var() float64 { return float64(i.N) * i.T.Var() }

// Mixture is the transform of a probability mixture: Σ w_i·T_i*(s). It
// models the exact multi-zone transfer time, where a request hits zone i
// with probability C_i/C and then has a zone-specific transfer transform
// (§3.2, before the Gamma approximation).
type Mixture struct {
	ws    []float64
	parts []Transform
}

// NewMixture returns the mixture transform with the given nonnegative
// weights (normalized to sum to one).
func NewMixture(weights []float64, parts []Transform) (Mixture, error) {
	if len(weights) == 0 || len(weights) != len(parts) {
		return Mixture{}, ErrParam
	}
	var sum float64
	for _, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return Mixture{}, ErrParam
		}
		sum += w
	}
	if !(sum > 0) {
		return Mixture{}, ErrParam
	}
	ws := make([]float64, len(weights))
	for i, w := range weights {
		ws[i] = w / sum
	}
	cp := make([]Transform, len(parts))
	copy(cp, parts)
	return Mixture{ws: ws, parts: cp}, nil
}

// LogAt returns log Σ w_i·exp(log T_i*(s)) using a log-sum-exp reduction.
func (m Mixture) LogAt(s float64) float64 {
	maxLog := math.Inf(-1)
	logs := make([]float64, len(m.parts))
	for i, p := range m.parts {
		logs[i] = p.LogAt(s)
		if m.ws[i] > 0 && logs[i] > maxLog {
			maxLog = logs[i]
		}
	}
	if math.IsInf(maxLog, 1) {
		return math.Inf(1)
	}
	var sum float64
	for i := range m.parts {
		if m.ws[i] > 0 {
			sum += m.ws[i] * math.Exp(logs[i]-maxLog)
		}
	}
	return maxLog + math.Log(sum)
}

// At returns Σ w_i·T_i*(s).
func (m Mixture) At(s complex128) complex128 {
	var total complex128
	for i, p := range m.parts {
		total += complex(m.ws[i], 0) * p.At(s)
	}
	return total
}

// MaxTheta returns the minimum component abscissa over components with
// positive weight.
func (m Mixture) MaxTheta() float64 {
	mt := math.Inf(1)
	for i, p := range m.parts {
		if m.ws[i] > 0 {
			if v := p.MaxTheta(); v < mt {
				mt = v
			}
		}
	}
	return mt
}

// Mean returns Σ w_i·E_i.
func (m Mixture) Mean() float64 {
	var mean float64
	for i, p := range m.parts {
		mean += m.ws[i] * p.Mean()
	}
	return mean
}

// Var returns the mixture variance Σ w_i(V_i + E_i²) − Mean²).
func (m Mixture) Var() float64 {
	mean := m.Mean()
	var second float64
	for i, p := range m.parts {
		e := p.Mean()
		second += m.ws[i] * (p.Var() + e*e)
	}
	return second - mean*mean
}
