package server

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/model"
	"mzqos/internal/slo"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// catalogFleet builds n observer-free 2-disk servers, shard i seeded
// 1000+i, and a coordinator placing each object on replicas of them.
func catalogFleet(t testing.TB, n, replicas int) ([]*Server, *cluster.Coordinator) {
	t.Helper()
	srvs := make([]*Server, n)
	engs := make([]engine.Engine, n)
	for i := range srvs {
		s, err := New(Config{
			Disk: disk.QuantumViking21(), NumDisks: 2, RoundLength: 1,
			Sizes: workload.PaperSizes(), Guarantee: model.Guarantee{Threshold: 0.01},
			Seed:  1000 + uint64(i),
			Trace: trace.Config{Disabled: true}, SLO: slo.Config{Disabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], engs[i] = s, s
	}
	c, err := cluster.New(cluster.Config{Engines: engs, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	return srvs, c
}

// catalogClips returns n clips of 1 to 40 paper-size fragments, seeded.
func catalogClips(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(7, 0x636174))
	sizes := workload.PaperSizes()
	clips := make([][]float64, n)
	for i := range clips {
		clips[i] = make([]float64, 1+rng.IntN(40))
		for k := range clips[i] {
			clips[i][k] = sizes.Sample(rng)
		}
	}
	return clips
}

// placedAt reads fragment k of a catalog entry as the shard holding it
// serves it: its size and the cylinder and zone of this shard's copy.
func placedAt(o *object, k int) (size float64, cyl, zone int) {
	f := &o.frags[k]
	return f.Size, int(f.Cyl[o.slot]), int(f.Zone[o.slot])
}

// TestCatalogGolden pins every size bit, cylinder and zone every shard
// holds: a standalone 4-disk server, and 3-shard coordinators placing
// each clip on two and on three replicas. Each shard draws its placement
// from its own rng, so where a clip's fragments land on a shard depends
// only on that shard's seed and the clips placed on it before.
func TestCatalogGolden(t *testing.T) {
	clips := catalogClips(24)
	for _, tc := range []struct {
		name     string
		replicas int // 0: a standalone server
		want     uint64
	}{
		{"server", 0, 0x2fbb05baf07eac2d},
		{"R=2", 2, 0x94ff555d722b3247},
		{"R=3", 3, 0xe4424c2db57c9d76},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var srvs []*Server
			add := func(name string, sizes []float64) error { return srvs[0].AddObject(name, sizes) }
			if tc.replicas == 0 {
				srvs = []*Server{paperServer(t, 4)}
			} else {
				var c *cluster.Coordinator
				srvs, c = catalogFleet(t, 3, tc.replicas)
				add = c.AddObject
			}
			for i, sizes := range clips {
				if err := add(fmt.Sprintf("clip-%02d", i), sizes); err != nil {
					t.Fatal(err)
				}
			}
			d := digest{fnv.New64a()}
			fragments := 0
			for _, s := range srvs {
				names := make([]string, 0, len(s.catalog))
				for name := range s.catalog {
					names = append(names, name)
				}
				slices.Sort(names)
				d.int(len(names))
				for _, name := range names {
					o := s.catalog[name]
					d.int(int(o.base))
					d.int(len(o.frags))
					for k := range o.frags {
						size, cyl, zone := placedAt(o, k)
						d.f64(size)
						d.int(cyl)
						d.int(zone)
					}
					fragments += len(o.frags)
				}
			}
			if got := d.h.Sum64(); got != tc.want {
				t.Errorf("catalog digest over %d placed fragments = %#x, want %#x", fragments, got, tc.want)
			}
		})
	}
}

// TestRetainedBytesPerFragment: the catalog keeps one 16-byte record per
// clip fragment for every pair of replicas — a clip's sizes are one fact,
// only its placement is per replica — so a clip on R replicas costs
// 16·⌈R/2⌉ bytes a fragment across the fleet, objects and names amortized.
func TestRetainedBytesPerFragment(t *testing.T) {
	const clips, length = 24, 2048 // 2048 records fill a 32 KiB size class
	sizes := make([]float64, length)
	for k := range sizes {
		sizes[k] = 1e5
	}
	for replicas := 1; replicas <= 3; replicas++ {
		srvs, c := catalogFleet(t, 3, replicas)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < clips; i++ {
			if err := c.AddObject(fmt.Sprintf("clip-%02d", i), sizes); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(srvs)
		runtime.KeepAlive(c)
		perFragment := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (clips * length)
		want := 16 * float64((replicas+1)/2)
		t.Logf("R=%d: %.2f B retained per clip fragment", replicas, perFragment)
		if perFragment > want+1 {
			t.Errorf("R=%d: %.2f B retained per clip fragment, want at most %.0f (+1 for objects and names)",
				replicas, perFragment, want)
		}
	}
}

// TestReplicaServesItsOwnPlacement: a shard serves a clip from the
// placement it drew itself, whichever replica it is. Shard 1 of a
// two-replica pair draws the same placements, in the same order, as a
// standalone server of its seed handed the same clips, so streams opened
// on both serve identical rounds.
func TestReplicaServesItsOwnPlacement(t *testing.T) {
	clips := catalogClips(6)
	srvs, c := catalogFleet(t, 2, 2)
	alone, _ := catalogFleet(t, 2, 1)
	for i, sizes := range clips {
		name := fmt.Sprintf("clip-%02d", i)
		if err := c.AddObject(name, sizes); err != nil {
			t.Fatal(err)
		}
		if err := alone[1].AddObject(name, sizes); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Server{srvs[1], alone[1]} {
		for i := range clips {
			if _, _, err := s.Open(fmt.Sprintf("clip-%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < 48; r++ {
		got, want := srvs[1].Step(), alone[1].Step()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the replica serves %+v, a standalone server of its seed %+v", r, got, want)
		}
	}
}
