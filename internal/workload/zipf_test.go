package workload

import (
	"math"
	"testing"

	"mzqos/internal/dist"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err != ErrParam {
		t.Errorf("n=0 err = %v", err)
	}
	if _, err := NewZipf(10, -1); err != ErrParam {
		t.Errorf("negative s err = %v", err)
	}
	if _, err := NewZipf(10, math.Inf(1)); err != ErrParam {
		t.Errorf("inf s err = %v", err)
	}
}

func TestZipfUniformCase(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Harmonic: P(rank 0) = 1/H_100 ≈ 0.1928.
	h := 0.0
	for i := 1; i <= 100; i++ {
		h += 1 / float64(i)
	}
	if math.Abs(z.Prob(0)-1/h) > 1e-12 {
		t.Errorf("Prob(0) = %v, want %v", z.Prob(0), 1/h)
	}
	// Probabilities are decreasing and sum to 1.
	var sum float64
	for i := 0; i < 100; i++ {
		sum += z.Prob(i)
		if i > 0 && z.Prob(i) > z.Prob(i-1)+1e-15 {
			t.Errorf("Prob not decreasing at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// Out-of-range ranks have zero probability.
	if z.Prob(-1) != 0 || z.Prob(100) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
	// Classic skew: the top 10% carries far more than 10% of requests.
	if z.TopShare(10) < 0.4 {
		t.Errorf("TopShare(10) = %v, expected heavy head", z.TopShare(10))
	}
	if z.TopShare(0) != 0 || math.Abs(z.TopShare(1000)-1) > 1e-12 {
		t.Error("TopShare edges wrong")
	}
	if len(z.cdf) != 100 {
		t.Errorf("catalog size = %d", len(z.cdf))
	}
}

func TestZipfSampling(t *testing.T) {
	z, err := NewZipf(50, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRand(14, 15)
	counts := make([]int, 50)
	const n = 200000
	for i := 0; i < n; i++ {
		r := z.Sample(rng)
		if r < 0 || r >= 50 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	for _, i := range []int{0, 1, 10, 49} {
		got := float64(counts[i]) / n
		if math.Abs(got-z.Prob(i)) > 0.005 {
			t.Errorf("rank %d frequency %v, want %v", i, got, z.Prob(i))
		}
	}
}
