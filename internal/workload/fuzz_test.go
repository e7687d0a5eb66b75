package workload

import (
	"strings"
	"testing"
)

// FuzzFragment checks byte conservation for arbitrary frame vectors.
func FuzzFragment(f *testing.F) {
	f.Add("100 200 300", 25.0, 1.0)
	f.Add("1", 0.04, 0.04)
	f.Fuzz(func(t *testing.T, framesStr string, rate, dt float64) {
		fields := strings.Fields(framesStr)
		if len(fields) == 0 || len(fields) > 10000 {
			return
		}
		frames := make([]float64, 0, len(fields))
		var total float64
		for _, s := range fields {
			v := float64(len(s)) // deterministic positive size from token
			frames = append(frames, v)
			total += v
		}
		frags, err := Fragment(frames, rate, dt)
		if err != nil {
			return
		}
		var sum float64
		for _, fr := range frags {
			sum += fr
		}
		if diff := sum - total; diff > 1e-6*total+1e-9 || diff < -1e-6*total-1e-9 {
			t.Fatalf("fragmentation lost bytes: %v vs %v", sum, total)
		}
	})
}
