package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// fleet builds n server shards of disks Quantum Viking drives each, on the
// paper's fragment sizes at δ = 1 % (N_max 26 per disk), with every observer
// off: no flight recorder, SLO audit, journal, ledger, history or shared
// registry. The degrade controller is on with a one-round debounce, so a
// shard's fault plan — the only way a test slows, fails or restores a shard —
// installs its limits at the end of the round the fault starts in, and the
// healthy ones again at the end of the first clean round after it. set, when
// non-nil, adjusts shard i's config before the shard is built.
func fleet(t testing.TB, n, disks int, set func(i int, c *server.Config)) []engine.Engine {
	t.Helper()
	engines := make([]engine.Engine, n)
	for i := range engines {
		cfg := server.Config{
			Disk:        disk.QuantumViking21(),
			NumDisks:    disks,
			RoundLength: 1,
			Sizes:       workload.PaperSizes(),
			Guarantee:   model.Guarantee{Threshold: 0.01},
			Seed:        1000 + uint64(i),
			Degrade:     server.DegradeConfig{Enabled: true, After: 1},
			Trace:       trace.Config{Disabled: true},
			SLO:         slo.Config{Disabled: true},
		}
		if set != nil {
			set(i, &cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = srv
	}
	return engines
}

// onShard sets shard's fault plan and leaves the other shards healthy.
func onShard(shard int, plan *fault.Plan) func(int, *server.Config) {
	return func(i int, c *server.Config) {
		if i == shard {
			c.Faults = plan
		}
	}
}

// slowdown multiplies every service phase of every disk by factor over
// rounds [from, until) (until 0: for good). On 2 Viking disks ×3 leaves
// N_max 6 of 26 and ×20 leaves 0 without failing the shard.
func slowdown(factor float64, from, until int) *fault.Plan {
	return &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: fault.AllDisks, From: from, Until: until, Factor: factor},
	}}
}

// outage fails every disk over rounds [from, until) (until 0: for good):
// the shard reports Failed, and a migrating coordinator drains it.
func outage(from, until int) *fault.Plan {
	return &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: fault.AllDisks, From: from, Until: until},
	}}
}

// unitClip is an object of n one-byte fragments: an n-round playback that
// costs the sweep next to nothing.
func unitClip(n int) []float64 {
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = 1
	}
	return sizes
}

func newCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// steps runs n coordinator rounds.
func steps(c *Coordinator, n int) {
	for range n {
		c.Step()
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should error")
	}
	engines := fleet(t, 2, 2, nil)
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

// TestExactFillUnderEightWayContention: eight goroutines race ticket
// admission on a 16-shard fleet of 25-disk servers until it is full, and
// the admitted count matches the sum of the per-shard N_max-constrained
// capacities exactly — no CAS lets a shard overshoot, and none gives up
// early on a shard that still has room.
func TestExactFillUnderEightWayContention(t *testing.T) {
	const (
		shards   = 16
		numDisks = 25
		workers  = 8
	)
	engines := fleet(t, shards, numDisks, nil)
	c := newCoordinator(t, Config{Engines: engines})

	wantPerShard := engines[0].Health().Capacity // 650: 25 disks × N_max 26
	if wantPerShard == 0 {
		t.Fatal("shards admit nothing: there is no fill to race over")
	}
	want := shards * wantPerShard

	// Hammer ticket admission until every shard is full. The reservations
	// are the concurrent stream population — materializing the streams is
	// not what this test is about (ClusterOpen covers materialization).
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
		Engines: fleet(t, shards, 25, nil), // 650 a shard: affinity never overflows
		Route:   RouteAffinity,
	})
	// A deterministic pre-load gives Step non-trivial reports: placed
	// objects and materialized streams, all sequenced before concurrency.
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("vod-%02d", i)
		if err := c.AddObject(name, unitClip(12)); err != nil {
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
	c := newCoordinator(t, Config{Engines: fleet(t, shards, 2, nil)})
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
	engines := fleet(t, 3, 2, onShard(1, slowdown(3, 0, 0)))
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded})

	// Round 0 runs the middle shard's disks three times slower; its
	// controller re-derives N_max against them, and Step's heartbeat
	// publishes the shrunk capacity.
	c.Step()
	var caps []int
	total := 0
	for _, e := range engines {
		caps = append(caps, e.Health().Capacity)
		total += e.Health().Capacity
	}
	if !(caps[1] > 0 && caps[1] < caps[0]) || caps[2] != caps[0] {
		t.Fatalf("capacities %v: want the middle shard degraded below its siblings' and above 0", caps)
	}

	// Fill the fleet. Least-loaded must respect the degraded capacity —
	// the shard absorbs only its reduced share.
	for i := 0; i < total; i++ {
		if _, err := c.Admit("x"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	for i, row := range c.Status().Shards {
		if row.Tickets != caps[i] {
			t.Errorf("shard %d holds %d tickets, want its capacity %d", i, row.Tickets, caps[i])
		}
	}
	if _, err := c.Admit("x"); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("admit past capacity: err = %v, want ErrRejected", err)
	}
}

func TestFailedShardShedsLoadToSiblings(t *testing.T) {
	engines := fleet(t, 2, 2, onShard(0, slowdown(20, 0, 2)))
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded})

	// Slowed twentyfold, shard 0 re-derives N_max 0 in round 0: capacity
	// 0, though not failed. That must not close cluster admission: new
	// load sheds to the sibling until the sibling fills.
	c.Step()
	admitted := 0
	for {
		if _, err := c.Admit("x"); err != nil {
			break
		}
		admitted++
	}
	if want := engines[1].Health().Capacity; admitted != want {
		t.Errorf("admitted %d streams with one shard at zero capacity, want the sibling's %d", admitted, want)
	}
	st := c.Status()
	if st.Shards[0].Tickets != 0 {
		t.Errorf("zero-capacity shard holds %d tickets, want 0", st.Shards[0].Tickets)
	}
	if h := st.Shards[0].Health; h.Capacity != 0 || !h.Degraded {
		t.Errorf("view reports shard 0 at capacity %d, degraded %v: want 0, true", h.Capacity, h.Degraded)
	}
	if st.Shards[0].Health.Failed {
		t.Error("a shard degraded to zero capacity must not be reported failed")
	}

	// Recovery: the slowdown ends with round 1, the clean round 2
	// restores the healthy limits, and the view reopens the shard.
	steps(c, 2)
	if _, err := c.Admit("x"); err != nil {
		t.Fatalf("admit after recovery: %v", err)
	}
	if got := c.Status().Shards[0].Tickets; got != 1 {
		t.Errorf("recovered shard holds %d tickets, want 1 (least-loaded routes to it)", got)
	}
}

func TestAffinityStickyAcrossRecalibrate(t *testing.T) {
	c := newCoordinator(t, Config{
		Engines:  fleet(t, 4, 2, nil),
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
	c := newCoordinator(t, Config{Engines: fleet(t, 2, 2, nil)})
	if err := c.AddObject("short", unitClip(2)); err != nil {
		t.Fatal(err)
	}
	var handles []Handle
	var delays []int
	maxDelay := 0
	for i := 0; i < 4; i++ {
		h, delay, err := c.Open("short")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		delays = append(delays, delay)
		maxDelay = max(maxDelay, delay)
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
		if r.Shard != handles[i].Shard || r.Stream != handles[i].ID || r.Delay != delays[i] {
			t.Errorf("record %d = shard %d stream %d delay %d, want shard %d stream %d delay %d",
				i, r.Shard, r.Stream, r.Delay, handles[i].Shard, handles[i].ID, delays[i])
		}
		if r.Object != "short" || r.Route != RouteRoundRobin {
			t.Errorf("record %d = %+v, want object short via round-robin", i, r)
		}
	}
	// A two-fragment stream with startup delay k completes in round k+1;
	// their tickets return.
	total := 0
	for i := 0; i < 2+maxDelay; i++ {
		rep := c.Step()
		total += rep.Completed
	}
	if total != 4 {
		t.Fatalf("completed %d streams over %d rounds, want 4", total, 2+maxDelay)
	}
	if got := c.Tickets(); got != 0 {
		t.Fatalf("tickets after completion = %d, want 0", got)
	}
}

func TestCloseReleasesTicket(t *testing.T) {
	c := newCoordinator(t, Config{Engines: fleet(t, 2, 2, nil)})
	if err := c.AddObject("movie", unitClip(4)); err != nil {
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
	c := newCoordinator(t, Config{Engines: fleet(t, 4, 2, nil), Replicas: 2})
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

// TestRejectedAddObjectLeavesNoPlacement: an object a replica turns away
// is not placed — a corrected retry succeeds on the stripe the rejected
// call would have had, the object opens, and the object count stands. A
// name the second replica already holds is not placed and leaves the
// cursor where it was; the first replica keeps its copy.
func TestRejectedAddObjectLeavesNoPlacement(t *testing.T) {
	engs := fleet(t, 2, 2, nil)
	c := newCoordinator(t, Config{Engines: engs, Replicas: 2})
	if err := c.AddObject("x", []float64{1, -1}); !errors.Is(err, server.ErrConfig) {
		t.Fatalf("negative fragment: err = %v, want the replica's ErrConfig", err)
	}
	if got := c.Status().Objects; got != 0 {
		t.Errorf("Status.Objects = %d after a rejected AddObject, want 0", got)
	}
	if err := c.AddObject("x", unitClip(2)); err != nil {
		t.Fatalf("corrected retry: %v", err)
	}
	if got := c.candidates("x"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("placement[x] = %v, want the first stripe [0 1]", got)
	}
	if _, _, err := c.Open("x"); err != nil {
		t.Errorf("open after the corrected retry: %v", err)
	}
	if got := c.Status().Objects; got != 1 {
		t.Errorf("Status.Objects = %d, want 1", got)
	}

	// The next stripe is [1 0]; shard 0 holds "y" out of band.
	if err := engs[0].AddObject("y", unitClip(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddObject("y", unitClip(2)); !errors.Is(err, engine.ErrDuplicateObject) {
		t.Fatalf("name held by the second replica: err = %v, want ErrDuplicateObject", err)
	}
	if got := c.candidates("y"); !reflect.DeepEqual(got, c.all) {
		t.Errorf("candidates(y) = %v, want every shard (not placed)", got)
	}
	if err := engs[1].AddObject("y", unitClip(2)); !errors.Is(err, engine.ErrDuplicateObject) {
		t.Errorf("first replica: err = %v, want it to keep its copy of y", err)
	}
	if err := c.AddObject("z", unitClip(2)); err != nil {
		t.Fatal(err)
	}
	if got := c.candidates("z"); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("placement[z] = %v, want the stripe y did not take, [1 0]", got)
	}
	if got := c.Status().Objects; got != 2 {
		t.Errorf("Status.Objects = %d, want 2", got)
	}
}

// TestConcurrentAddObjectPlacesEachOnce: two adders race on every name
// beside an admitter asking for it; each object is placed exactly once,
// the loser sees ErrDuplicateObject, and the cursor moves once per
// placement, so the stripes start evenly over the shards.
func TestConcurrentAddObjectPlacesEachOnce(t *testing.T) {
	const shards, names = 4, 64
	c := newCoordinator(t, Config{Engines: fleet(t, shards, 2, nil), Replicas: 2})
	var placed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("o%d", i)
				if g == 2 {
					if tk, err := c.Admit(name); err == nil {
						c.Release(&tk)
					}
					continue
				}
				switch err := c.AddObject(name, unitClip(1)); {
				case err == nil:
					placed.Add(1)
				case !errors.Is(err, engine.ErrDuplicateObject):
					t.Errorf("add %s: %v", name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := placed.Load(); got != names {
		t.Errorf("%d AddObject calls succeeded for %d names, want one each", got, names)
	}
	if got := c.Status().Objects; got != names {
		t.Errorf("Status.Objects = %d, want %d", got, names)
	}
	starts := make([]int, shards)
	for i := 0; i < names; i++ {
		starts[c.candidates(fmt.Sprintf("o%d", i))[0]]++
	}
	for id, n := range starts {
		if n != names/shards {
			t.Errorf("shard %d starts %d stripes, want %d (stripe starts %v)", id, n, names/shards, starts)
		}
	}
}

func TestOpenUnknownObjectFailsCleanly(t *testing.T) {
	c := newCoordinator(t, Config{Engines: fleet(t, 2, 2, nil)})
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
