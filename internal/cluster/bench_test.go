package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mzqos/internal/dist"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/server"
	"mzqos/internal/workload"
)

// fullCoordinator builds a 4-shard server fleet with a journal, places one
// object on every shard and opens streams of it until the fleet is full, so
// the next Open is rejected (and journalled). Migrate is on to pin that migration support adds nothing to
// admission: all of its work happens inside Step, never under Open.
func fullCoordinator(tb testing.TB, route string) *Coordinator {
	tb.Helper()
	c := newCoordinator(tb, Config{Engines: fleet(tb, 4, 2, nil), Route: route, Replicas: 4, Migrate: true,
		Journal: journal.New(journal.Config{})})
	if err := c.AddObject("vod", unitClip(4)); err != nil {
		tb.Fatal(err)
	}
	openN(tb, c, "vod", c.Status().Capacity)
	return c
}

// A rejected Open is a read of the view and a compare per candidate shard:
// it must not allocate under any routing policy, with migration enabled.
func TestRejectedOpenAllocsZero(t *testing.T) {
	for _, route := range []string{RouteRoundRobin, RouteLeastLoaded, RouteAffinity} {
		c := fullCoordinator(t, route)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, err := c.Open("vod"); !errors.Is(err, ErrRejected) {
				t.Fatalf("%s: open on a full fleet: err = %v, want ErrRejected", route, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a rejected Open allocates %v per call, want 0", route, allocs)
		}
	}
}

// BenchmarkOpenClose measures one admitted Open and its Close on a 16-shard
// fleet under each routing policy.
func BenchmarkOpenClose(b *testing.B) {
	for _, route := range []string{RouteRoundRobin, RouteLeastLoaded, RouteAffinity} {
		b.Run(route, func(b *testing.B) {
			c := newCoordinator(b, Config{Engines: fleet(b, 16, 4, nil), Route: route, Replicas: 16, Migrate: true})
			if err := c.AddObject("vod", unitClip(4)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, _, err := c.Open("vod")
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Close(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkCatalogGather replays the system benchmark's cluster-8x4
// workload at seed 42 (benchmark/workloads.go): 8 shards of 4 disks at the
// driver's shard seeds, least-loaded routing, every clip on 2 replicas, 400
// paper-size clips of geometric length with mean 600 rounds, and per round
// a Poisson(2.8) count of opens drawn Zipf(0.8) over the catalog, in the
// driver's draw order from its generator. That offer saturates the fleet,
// so opens past its capacity are refused, as in the workload. The 5000
// warm-up rounds run off the clock; each timed iteration is one round's
// opens and Step, whose gather reads one replica-shared catalog record per
// due stream. Run it under `go test -cpuprofile` to read the gather's line
// in server.Step:
//
//	go test -run '^$' -bench CatalogGather -benchtime 100000x -cpuprofile cpu.prof ./internal/cluster/
//	go tool pprof -list 'server.\(\*Server\).Step$' internal/cluster/cluster.test cpu.prof
func BenchmarkCatalogGather(b *testing.B) {
	const (
		shards, disks, clips, replicas = 8, 4, 400, 2
		meanLength, arrivals, zipfS    = 600, 2.8, 0.8
		seed, warmup                   = 42, 5000
	)
	c := newCoordinator(b, Config{
		Engines: fleet(b, shards, disks, func(i int, c *server.Config) {
			c.Seed = seed + uint64(i)*0x9e3779b9
			c.Degrade = server.DegradeConfig{}
		}),
		Route: RouteLeastLoaded, Replicas: replicas, Migrate: true,
	})
	rng := dist.NewRand(seed, seed^0xfeed)
	sizes := workload.PaperSizes()
	names := make([]string, clips)
	for i := range names {
		frags := make([]float64, 1+geometric(meanLength, rng))
		for k := range frags {
			frags[k] = sizes.Sample(rng)
		}
		names[i] = fmt.Sprintf("clip-%04d", i)
		if err := c.AddObject(names[i], frags); err != nil {
			b.Fatal(err)
		}
	}
	pop, err := workload.NewZipf(clips, zipfS)
	if err != nil {
		b.Fatal(err)
	}
	round := func() {
		for k := poisson(arrivals, rng); k > 0; k-- {
			if _, _, err := c.Open(names[pop.Sample(rng)]); err != nil && !errors.Is(err, ErrRejected) {
				b.Fatal(err)
			}
		}
		c.Step()
	}
	for range warmup {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Tickets())/float64(c.Status().Capacity), "load")
}

// poisson and geometric are the system benchmark's arrival-count and
// clip-length draws.
func poisson(lambda float64, rng *rand.Rand) int {
	l, k, p := math.Exp(-lambda), 0, 1.0
	for {
		if p *= rng.Float64(); p <= l {
			return k
		}
		k++
	}
}

func geometric(mean float64, rng *rand.Rand) int {
	n := 0
	for rng.Float64() > 1/mean && n < 1<<20 {
		n++
	}
	return n
}
