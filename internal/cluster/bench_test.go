package cluster

import (
	"testing"

	"mzqos/internal/sim"
)

// admitCoordinator builds a 16-shard simulated fleet with one warm
// admission behind it, so the view and the routing cursor are primed.
// Migrate is on to pin that migration support adds nothing to the
// admission fast path: all of its work happens inside Step, never under
// Admit/Release.
func admitCoordinator(tb testing.TB, route string) *Coordinator {
	tb.Helper()
	c := newCoordinator(tb, Config{Engines: simFleet(tb, 16, 4, 64), Route: route, Migrate: true})
	admitRelease(tb, c)
	return c
}

// admitRelease is one ticket reservation plus its release, so the fleet
// never fills and every call takes the lock-free view-consult + CAS path.
func admitRelease(tb testing.TB, c *Coordinator) {
	t, err := c.Admit("vod")
	if err != nil {
		tb.Fatal(err)
	}
	c.Release(&t)
}

// A reservation is a read of the published view and one CAS: it must not
// allocate under any routing policy, with migration enabled.
func TestAdmitReleaseAllocsZero(t *testing.T) {
	for _, route := range []string{RouteRoundRobin, RouteLeastLoaded, RouteAffinity} {
		c := admitCoordinator(t, route)
		if allocs := testing.AllocsPerRun(1000, func() { admitRelease(t, c) }); allocs != 0 {
			t.Errorf("%s: Admit+Release allocates %v per call, want 0", route, allocs)
		}
	}
}

func BenchmarkAdmit(b *testing.B) {
	for _, route := range []string{RouteRoundRobin, RouteLeastLoaded, RouteAffinity} {
		b.Run(route, func(b *testing.B) {
			c := admitCoordinator(b, route)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				admitRelease(b, c)
			}
		})
	}
	// Contention across GOMAXPROCS admitters is the case cluster serving
	// exists for.
	b.Run("parallel", func(b *testing.B) {
		c := admitCoordinator(b, RouteRoundRobin)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := c.Admit("vod")
				if err != nil {
					b.Error(err)
					return
				}
				c.Release(&t)
			}
		})
	})
}

// BenchmarkMigrateFailover measures a full failover round: one shard of a
// 2-shard fleet fails, Step drains its whole active set (32 streams) and
// re-admits every stream on the sibling, and Recalibrate restores the
// failed shard for the next lap. Laps ping-pong the fleet between the two
// shards so each iteration migrates the same population. This path runs
// inside Step and is allowed to allocate.
func BenchmarkMigrateFailover(b *testing.B) {
	const streams = 32
	engines := simFleet(b, 2, 2, 64)
	c := newCoordinator(b, Config{
		Engines:       engines,
		Route:         RouteLeastLoaded,
		Replicas:      2,
		Migrate:       true,
		MigrateBudget: streams,
	})
	// One object long enough that no stream completes inside the horizon.
	sizes := make([]float64, 1<<20)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("vod", sizes); err != nil {
		b.Fatal(err)
	}
	openN(b, c, "vod", streams)
	failover := func(shard int) {
		engines[shard].(*sim.Engine).SetFailed(true)
		c.Step()
		if _, err := c.Recalibrate(0); err != nil {
			b.Fatal(err)
		}
	}
	failover(0) // warm lap parks the whole population on shard 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failover(1 - i%2)
	}
	b.StopTimer()
	if ms := c.MigrationStats(); ms.Failed > 0 || ms.Pending > 0 {
		b.Fatalf("migration stats %+v: failover laps must place every stream", ms)
	}
}
