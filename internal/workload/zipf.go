package workload

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Zipf models clip popularity: rank i (0-based) is requested with
// probability proportional to 1/(i+1)^S. Video-on-demand catalogs are
// classically Zipf-like, which concentrates load on few objects — the
// regime where the paper's random placement and time-wise unrelated
// streams assumptions earn their keep.
type Zipf struct {
	s   float64
	cdf []float64
}

// NewZipf returns a Zipf law over n items with exponent s >= 0 (s = 0 is
// uniform).
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 || s < 0 || math.IsNaN(s) || math.IsInf(s, 1) {
		return nil, ErrParam
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{s: s, cdf: cdf}, nil
}

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Sample draws a rank.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// TopShare returns the cumulative probability of the k most popular items
// — the "90/10" skew diagnostic.
func (z *Zipf) TopShare(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(z.cdf) {
		k = len(z.cdf)
	}
	return z.cdf[k-1]
}
