package disk

import (
	"testing"

	"mzqos/internal/dist"
)

var sinkLocation Location

// BenchmarkSampleLocation is one uniform placement draw — what the server's
// catalog build pays per fragment per replica and the simulators per
// request per round.
func BenchmarkSampleLocation(b *testing.B) {
	for _, g := range []*Geometry{QuantumViking21(), Synthetic2000()} {
		b.Run(g.Name, func(b *testing.B) {
			rng := dist.NewRand(1, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLocation = g.SampleLocation(rng)
			}
		})
	}
}

// BenchmarkSampleLocationUnder is one placement draw under an access
// profile — the simulators' path when sim.Config.Access is set — here the
// capacity-weighted profile, the same distribution SampleLocation draws.
func BenchmarkSampleLocationUnder(b *testing.B) {
	for _, g := range []*Geometry{QuantumViking21(), Synthetic2000()} {
		b.Run(g.Name, func(b *testing.B) {
			p := UniformAccess(g)
			rng := dist.NewRand(1, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLocation = g.SampleLocationUnder(p, rng)
			}
		})
	}
}
