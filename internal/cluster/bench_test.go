package cluster

import (
	"testing"

	"mzqos/internal/fault"
	"mzqos/internal/server"
)

// admitCoordinator builds a 16-shard server fleet with one warm
// admission behind it, so the view and the routing cursor are primed.
// Migrate is on to pin that migration support adds nothing to the
// admission fast path: all of its work happens inside Step, never under
// Admit/Release.
func admitCoordinator(tb testing.TB, route string) *Coordinator {
	tb.Helper()
	c := newCoordinator(tb, Config{Engines: fleet(tb, 16, 4, nil), Route: route, Migrate: true})
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

// BenchmarkMigrateFailover measures a full failover lap on a 2-shard
// fleet: in its first round one shard's disks all fail, the shard installs
// its failed limits and Step drains its whole active set (32 streams)
// onto the sibling; in its second the disks are back, and the shard
// installs its healthy limits again. Laps alternate which shard fails, so
// each one migrates the same population. The fault plans are written for a
// fixed number of laps, after which a fresh fleet is built off the clock.
// This path runs inside Step and is allowed to allocate.
func BenchmarkMigrateFailover(b *testing.B) {
	const streams, laps = 32, 64
	// Shard s fails in the first round of laps ≡ s (mod 2); lap 0 is the
	// warm lap that parks the whole population on shard 1.
	plans := [2]*fault.Plan{{}, {}}
	for lap := 0; lap <= laps; lap++ {
		p := plans[lap%2]
		p.Faults = append(p.Faults, fault.Fault{Kind: fault.Failure, Disk: fault.AllDisks, From: 2 * lap, Until: 2*lap + 1})
	}
	build := func() *Coordinator {
		c := newCoordinator(b, Config{
			Engines:       fleet(b, 2, 2, func(i int, c *server.Config) { c.Faults = plans[i] }),
			Route:         RouteLeastLoaded,
			Replicas:      2,
			Migrate:       true,
			MigrateBudget: streams,
		})
		// One object long enough that no stream completes inside the laps.
		if err := c.AddObject("vod", unitClip(2*laps+8)); err != nil {
			b.Fatal(err)
		}
		openN(b, c, "vod", streams)
		steps(c, 2)
		return c
	}
	var c *Coordinator
	check := func() {
		if ms := c.MigrationStats(); ms.Failed > 0 || ms.Pending > 0 || ms.Succeeded == 0 {
			b.Fatalf("migration stats %+v: failover laps must place every stream", ms)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%laps == 0 {
			b.StopTimer()
			if c != nil {
				check()
			}
			c = build()
			b.StartTimer()
		}
		steps(c, 2)
	}
	b.StopTimer()
	check()
}
