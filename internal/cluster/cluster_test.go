package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/sim"
	"mzqos/internal/workload"
)

// simFleet builds n simulated shard engines with the given array width
// and per-disk limit, seeded deterministically per shard.
func simFleet(t testing.TB, n, numDisks, perDisk int) []engine.Engine {
	t.Helper()
	engines := make([]engine.Engine, n)
	for i := range engines {
		e, err := sim.NewEngine(sim.EngineConfig{
			Disk:         disk.QuantumViking21(),
			NumDisks:     numDisks,
			Sizes:        workload.PaperSizes(),
			RoundLength:  1,
			PerDiskLimit: perDisk,
			Seed:         1000 + uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

func newCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should error")
	}
	engines := simFleet(t, 2, 2, 2)
	if _, err := New(Config{Engines: engines, Route: "bogus"}); err == nil {
		t.Error("unknown route should error")
	}
	if _, err := New(Config{Engines: engines, Replicas: 3}); err == nil {
		t.Error("more replicas than shards should error")
	}
	if _, err := New(Config{Engines: []engine.Engine{nil}}); err == nil {
		t.Error("nil engine should error")
	}
}

// TestMillionStreamsAcrossSixteenShards is the scale acceptance test:
// ≥1M concurrent admissions across ≥16 simulated shards, with the
// cluster-wide admitted count matching the sum of the per-shard
// N_max-constrained limits exactly.
func TestMillionStreamsAcrossSixteenShards(t *testing.T) {
	const (
		shards   = 16
		numDisks = 25
		perDisk  = 2501 // capacity 62525/shard, 1000400 cluster-wide
	)
	c := newCoordinator(t, Config{Engines: simFleet(t, shards, numDisks, perDisk)})

	wantPerShard := numDisks * perDisk
	want := shards * wantPerShard
	if want < 1_000_000 {
		t.Fatalf("fleet too small: capacity %d < 1M", want)
	}

	// Hammer ticket admission from several goroutines until every shard
	// is full. The reservations are the concurrent stream population —
	// materializing a million engine streams is not what this test is
	// about (ClusterOpen covers materialization).
	workers := 8
	counts := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				_, err := c.Admit("any")
				if err != nil {
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()

	var admitted int64
	for _, n := range counts {
		admitted += n
	}
	if admitted != int64(want) {
		t.Fatalf("admitted %d streams, want exactly cluster capacity %d", admitted, want)
	}
	if got := c.Tickets(); got != want {
		t.Fatalf("outstanding tickets = %d, want %d", got, want)
	}
	st := c.Status()
	for _, row := range st.Shards {
		if row.Tickets != wantPerShard {
			t.Fatalf("shard %d holds %d tickets, want its N_max-constrained %d",
				row.Shard, row.Tickets, wantPerShard)
		}
	}
	// One more admit must be rejected with the shared sentinel.
	if _, err := c.Admit("any"); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("admit past capacity: err = %v, want ErrRejected", err)
	}
}

// deterministicRun is one full concurrent Admit/Step/Heartbeat episode;
// the -race stress test runs it twice and demands bit-identical results.
type deterministicRun struct {
	placements []int // shard per admitted name, by name index
	reports    []RoundReport
}

func runConcurrentEpisode(t *testing.T) deterministicRun {
	t.Helper()
	const (
		shards  = 4
		names   = 512
		rounds  = 8
		workers = 4
	)
	c := newCoordinator(t, Config{
		Engines: simFleet(t, shards, 4, names), // ample capacity: affinity never overflows
		Route:   RouteAffinity,
	})
	// A deterministic pre-load gives Step non-trivial reports: placed
	// objects and materialized streams, all sequenced before concurrency.
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("vod-%02d", i)
		if err := c.AddObject(name, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Open(name); err != nil {
			t.Fatal(err)
		}
	}

	out := deterministicRun{placements: make([]int, names)}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Heartbeat collector, racing the admissions and the round loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Heartbeat()
			}
		}
	}()

	// Concurrent admitters over disjoint name ranges. Affinity is a pure
	// function of (name hash, view), so the chosen shard cannot depend on
	// goroutine interleaving while capacity lasts.
	var awg sync.WaitGroup
	for w := 0; w < workers; w++ {
		awg.Add(1)
		go func(w int) {
			defer awg.Done()
			for i := w; i < names; i += workers {
				tk, err := c.Admit(fmt.Sprintf("name-%03d", i))
				if err != nil {
					t.Errorf("admit name-%03d: %v", i, err)
					return
				}
				out.placements[i] = tk.Shard
			}
		}(w)
	}

	// The round loop runs concurrently with the admitters.
	for r := 0; r < rounds; r++ {
		out.reports = append(out.reports, c.Step())
	}
	awg.Wait()
	close(stop)
	wg.Wait()
	return out
}

// TestConcurrentAdmitStepHeartbeatDeterministic is the -race acceptance
// test: concurrent Admit/Step/Heartbeat across shards yields bit-identical
// placement and round reports for a fixed seed, run to run.
func TestConcurrentAdmitStepHeartbeatDeterministic(t *testing.T) {
	a := runConcurrentEpisode(t)
	b := runConcurrentEpisode(t)
	if !reflect.DeepEqual(a.placements, b.placements) {
		t.Error("affinity placements differ between identical runs")
	}
	if !reflect.DeepEqual(a.reports, b.reports) {
		t.Error("round reports differ between identical runs")
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	const shards = 4
	c := newCoordinator(t, Config{Engines: simFleet(t, shards, 2, 10)})
	for i := 0; i < shards*5; i++ {
		if _, err := c.Admit("x"); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range c.Status().Shards {
		if row.Tickets != 5 {
			t.Errorf("shard %d: %d tickets, want 5 (even round-robin spread)", row.Shard, row.Tickets)
		}
	}
}

func TestLeastLoadedAvoidsDegradedShard(t *testing.T) {
	engines := simFleet(t, 3, 4, 2) // capacity 8 per shard
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded})

	// Degrade the middle shard to N_max=1 (capacity 4) and publish it.
	engines[1].(*sim.Engine).Degrade(1)
	c.Heartbeat()

	// Fill the fleet: 8+4+8 slots. Least-loaded must respect the degraded
	// capacity — the shard absorbs only its reduced share.
	for i := 0; i < 20; i++ {
		if _, err := c.Admit("x"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	st := c.Status()
	if got := st.Shards[1].Tickets; got != 4 {
		t.Errorf("degraded shard holds %d tickets, want its shrunk capacity 4", got)
	}
	if st.Shards[0].Tickets != 8 || st.Shards[2].Tickets != 8 {
		t.Errorf("healthy shards hold %d/%d tickets, want 8/8",
			st.Shards[0].Tickets, st.Shards[2].Tickets)
	}
	if _, err := c.Admit("x"); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("admit past capacity: err = %v, want ErrRejected", err)
	}
}

func TestFailedShardShedsLoadToSiblings(t *testing.T) {
	engines := simFleet(t, 2, 2, 4) // capacity 8 per shard
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded})

	// A fully failed shard (capacity 0) must not close cluster admission:
	// new load sheds to the sibling until the sibling fills.
	engines[0].(*sim.Engine).Degrade(0)
	c.Heartbeat()
	admitted := 0
	for {
		if _, err := c.Admit("x"); err != nil {
			break
		}
		admitted++
	}
	if admitted != 8 {
		t.Errorf("admitted %d streams with one failed shard, want the sibling's 8", admitted)
	}
	st := c.Status()
	if st.Shards[0].Tickets != 0 {
		t.Errorf("failed shard holds %d tickets, want 0", st.Shards[0].Tickets)
	}
	if st.Shards[0].Health.Capacity != 0 {
		t.Error("view should report the degraded shard's capacity as 0")
	}
	if st.Shards[0].Health.Failed {
		t.Error("a shard degraded to zero capacity must not be reported failed")
	}

	// Recovery: Recalibrate restores the configured limit and the next
	// view reopens the shard.
	if _, err := c.Recalibrate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit("x"); err != nil {
		t.Fatalf("admit after recovery: %v", err)
	}
	if got := c.Status().Shards[0].Tickets; got != 1 {
		t.Errorf("recovered shard holds %d tickets, want 1 (least-loaded routes to it)", got)
	}
}

func TestAffinityStickyAcrossRecalibrate(t *testing.T) {
	c := newCoordinator(t, Config{
		Engines:  simFleet(t, 4, 4, 8),
		Route:    RouteAffinity,
		Replicas: 2,
	})
	if err := c.AddObject("movie", []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	h1, _, err := c.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := c.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Shard != h2.Shard {
		t.Errorf("affinity split repeat opens across shards %d and %d", h1.Shard, h2.Shard)
	}
	if _, err := c.Recalibrate(0); err != nil {
		t.Fatal(err)
	}
	h3, _, err := c.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	if h3.Shard != h1.Shard {
		t.Errorf("affinity moved from shard %d to %d across Recalibrate", h1.Shard, h3.Shard)
	}
}

func TestOpenMaterializesAndCompletionReleasesTickets(t *testing.T) {
	c := newCoordinator(t, Config{Engines: simFleet(t, 2, 2, 4)})
	if err := c.AddObject("short", []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	var handles []Handle
	for i := 0; i < 4; i++ {
		h, _, err := c.Open("short")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := c.Tickets(); got != 4 {
		t.Fatalf("tickets after opens = %d, want 4", got)
	}
	// Every admission names its shard in the explainability ring.
	recs := c.Admissions()
	if len(recs) != 4 {
		t.Fatalf("admission ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Shard != handles[i].Shard || r.Stream != handles[i].ID {
			t.Errorf("record %d = shard %d stream %d, want shard %d stream %d",
				i, r.Shard, r.Stream, handles[i].Shard, handles[i].ID)
		}
		if r.Object != "short" || r.Route != RouteRoundRobin {
			t.Errorf("record %d = %+v, want object short via round-robin", i, r)
		}
	}
	// Two rounds complete the two-fragment streams; their tickets return.
	total := 0
	for i := 0; i < 2; i++ {
		rep := c.Step()
		total += rep.Completed
	}
	if total != 4 {
		t.Fatalf("completed %d streams over two rounds, want 4", total)
	}
	if got := c.Tickets(); got != 0 {
		t.Fatalf("tickets after completion = %d, want 0", got)
	}
}

func TestCloseReleasesTicket(t *testing.T) {
	c := newCoordinator(t, Config{Engines: simFleet(t, 2, 2, 4)})
	if err := c.AddObject("movie", []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	h, _, err := c.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(h); err != nil {
		t.Fatal(err)
	}
	if got := c.Tickets(); got != 0 {
		t.Fatalf("tickets after close = %d, want 0", got)
	}
	if err := c.Close(h); err == nil {
		t.Error("double close should error")
	}
}

func TestAddObjectPlacesReplicasStriped(t *testing.T) {
	c := newCoordinator(t, Config{Engines: simFleet(t, 4, 2, 4), Replicas: 2})
	for i := 0; i < 4; i++ {
		if err := c.AddObject(fmt.Sprintf("o%d", i), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]int{
		"o0": {0, 1}, "o1": {1, 2}, "o2": {2, 3}, "o3": {3, 0},
	}
	for name, cands := range want {
		if got := c.candidates(name); !reflect.DeepEqual(got, cands) {
			t.Errorf("placement[%s] = %v, want striped %v", name, got, cands)
		}
	}
	if err := c.AddObject("o0", []float64{1}); !errors.Is(err, engine.ErrDuplicateObject) {
		t.Errorf("duplicate placement: err = %v, want ErrDuplicateObject", err)
	}
	if got := c.Status().Objects; got != 4 {
		t.Errorf("Status.Objects = %d, want 4", got)
	}
}

func TestOpenUnknownObjectFailsCleanly(t *testing.T) {
	c := newCoordinator(t, Config{Engines: simFleet(t, 2, 2, 4)})
	_, _, err := c.Open("ghost")
	if !errors.Is(err, engine.ErrUnknownObject) {
		t.Fatalf("open unknown object: err = %v, want ErrUnknownObject", err)
	}
	if got := c.Tickets(); got != 0 {
		t.Fatalf("failed open leaked %d tickets", got)
	}
	if got := c.Admissions(); len(got) != 0 {
		t.Fatalf("failed open recorded admissions: %+v", got)
	}
}
