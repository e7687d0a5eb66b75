package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
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

// withJournal has every shard record on jnl, under its own shard id.
func withJournal(jnl *journal.Journal) func(int, *server.Config) {
	return func(i int, c *server.Config) { c.Journal, c.Shard = jnl, i }
}

// admitEvents filters a journal for admit events.
func admitEvents() journal.Filter {
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindAdmit}
	return f
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

// TestOpenFillsExactCapacity: the round loop opens streams on a 16-shard
// fleet of 25-disk servers, and Open admits exactly the sum of the per-shard
// D·N_max capacities — it rejects nothing while a shard has room, and no
// shard takes a stream past its capacity.
func TestOpenFillsExactCapacity(t *testing.T) {
	const shards, numDisks = 16, 25
	engines := fleet(t, shards, numDisks, nil)
	c := newCoordinator(t, Config{Engines: engines, Replicas: shards})
	if err := c.AddObject("any", unitClip(4)); err != nil {
		t.Fatal(err)
	}

	wantPerShard := engines[0].Health().Capacity // 650: 25 disks × N_max 26
	if wantPerShard == 0 {
		t.Fatal("shards admit nothing: there is no fill to check")
	}
	want := shards * wantPerShard
	openN(t, c, "any", want)
	if got := c.Tickets(); got != want {
		t.Fatalf("outstanding tickets = %d, want %d", got, want)
	}
	for i, row := range c.Status().Shards {
		if row.Tickets != wantPerShard || activeOn(engines[i]) != wantPerShard {
			t.Fatalf("shard %d holds %d tickets for %d streams, want its D·N_max %d",
				row.Shard, row.Tickets, activeOn(engines[i]), wantPerShard)
		}
	}
	// The fleet is full: the next Open is rejected with the shared sentinel,
	// by the coordinator's own capacity check — no engine was asked to take
	// a stream past its capacity, so no shard ever rejected one.
	if _, _, err := c.Open("any"); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("open past capacity: err = %v, want ErrRejected", err)
	}
	if rej := c.tel.rejected.Value(); rej != 1 {
		t.Fatalf("%d cluster rejections over the fill, want 1", rej)
	}
	for i, e := range engines {
		if n := shardRejected(t, e); n != 0 {
			t.Fatalf("shard %d rejected %d opens over the fill, want 0", i, n)
		}
	}
}

// shardRejected reads a shard's mzqos_server_streams_rejected_total: the
// opens its own admission control turned away.
func shardRejected(t testing.TB, e engine.Engine) int64 {
	t.Helper()
	for _, c := range e.(*server.Server).Telemetry().Registry().Snapshot().Counters {
		if c.Name == "mzqos_server_streams_rejected_total" {
			return c.Value
		}
	}
	t.Fatal("shard exports no mzqos_server_streams_rejected_total")
	return 0
}

// TestOpenRejectJournalled turns a stream away from a full shard: the
// coordinator journals one reject event for it, naming the object and the
// shard the route tried first, since no shard saw the stream to record it.
func TestOpenRejectJournalled(t *testing.T) {
	jnl := journal.New(journal.Config{})
	c := newCoordinator(t, Config{Engines: fleet(t, 3, 2, nil), Journal: jnl})
	for _, name := range []string{"a", "b", "c"} { // one object per shard
		if err := c.AddObject(name, unitClip(4)); err != nil {
			t.Fatal(err)
		}
	}
	steps(c, 2)
	openN(t, c, "b", c.Status().Shards[1].Health.Capacity)
	if _, _, err := c.Open("b"); !errors.Is(err, ErrRejected) {
		t.Fatalf("open on a full shard: err = %v, want ErrRejected", err)
	}
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindReject}
	evs := jnl.Events(f)
	if len(evs) != 1 {
		t.Fatalf("%d reject events after one rejection, want 1", len(evs))
	}
	want := journal.Event{Seq: evs[0].Seq, Round: 2, Kind: journal.KindReject, Shard: 1, Disk: -1, From: -1, To: -1,
		Object: "b", Detail: "every candidate shard full"}
	if evs[0] != want {
		t.Errorf("reject event = %+v, want %+v", evs[0], want)
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	const shards = 4
	c := newCoordinator(t, Config{Engines: fleet(t, shards, 2, nil), Replicas: shards})
	if err := c.AddObject("x", unitClip(4)); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "x", shards*5)
	for _, row := range c.Status().Shards {
		if row.Tickets != 5 {
			t.Errorf("shard %d: %d tickets, want 5 (even round-robin spread)", row.Shard, row.Tickets)
		}
	}
}

func TestLeastLoadedAvoidsDegradedShard(t *testing.T) {
	engines := fleet(t, 3, 2, onShard(1, slowdown(3, 0, 0)))
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded, Replicas: 3})
	if err := c.AddObject("x", unitClip(4)); err != nil {
		t.Fatal(err)
	}

	// Round 0 runs the middle shard's disks three times slower; its
	// controller re-derives N_max against them, and Step's view refresh
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
	openN(t, c, "x", total)
	for i, row := range c.Status().Shards {
		if row.Tickets != caps[i] {
			t.Errorf("shard %d holds %d tickets, want its capacity %d", i, row.Tickets, caps[i])
		}
	}
	if _, _, err := c.Open("x"); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("open past capacity: err = %v, want ErrRejected", err)
	}
}

func TestFailedShardShedsLoadToSiblings(t *testing.T) {
	engines := fleet(t, 2, 2, onShard(0, slowdown(20, 0, 2)))
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded, Replicas: 2})
	if err := c.AddObject("x", unitClip(8)); err != nil {
		t.Fatal(err)
	}

	// Slowed twentyfold, shard 0 re-derives N_max 0 in round 0: capacity
	// 0, though not failed. That must not close cluster admission: new
	// load sheds to the sibling until the sibling fills.
	c.Step()
	admitted := 0
	for {
		if _, _, err := c.Open("x"); err != nil {
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
	if _, _, err := c.Open("x"); err != nil {
		t.Fatalf("open after recovery: %v", err)
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
	c.Recalibrate(0)
	h3, _, err := c.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	if h3.Shard != h1.Shard {
		t.Errorf("affinity moved from shard %d to %d across Recalibrate", h1.Shard, h3.Shard)
	}
}

// TestRecalibrateKeepsFailedShardClosed: a refit of a shard with a disk
// down is evaluated under the failure, so the coordinator's view keeps the
// shard at capacity 0 and least-loaded routes every new stream past it.
func TestRecalibrateKeepsFailedShardClosed(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{{Kind: fault.Failure, Disk: 1, From: 10}}}
	engines := fleet(t, 2, 2, onShard(0, plan))
	c := newCoordinator(t, Config{Engines: engines, Route: RouteLeastLoaded, Replicas: 2})
	rng := dist.NewRand(3, 4)
	sizes := make([]float64, 200)
	for i := range sizes {
		sizes[i] = workload.PaperSizes().Sample(rng)
	}
	if err := c.AddObject("clip", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 10)
	steps(c, 20) // both disks serve rounds 0–9; disk 1 is down from round 10
	c.Recalibrate(2)
	if h := c.Status().Shards[0].Health; h.Capacity != 0 || !h.Failed || !h.Degraded {
		t.Errorf("view of the failed shard after the refit: capacity %d, failed %v, degraded %v; want 0, true, true",
			h.Capacity, h.Failed, h.Degraded)
	}
	onFailed := 0
	for _, h := range openN(t, c, "clip", 40) {
		if h.Shard == 0 {
			onFailed++
		}
	}
	if onFailed != 0 {
		t.Errorf("%d of 40 Opens routed to the failed shard", onFailed)
	}
}

// TestRecalibrateCountsShardsThatMoved: Recalibrate returns how many
// shards' limits it moved. A fleet with nothing observed moves none; once
// the shard holding an object of fragments twice the declared size has
// served it, that shard's limit shrinks and its sibling, with nothing
// observed, declines — one shard moved, and the view shows it.
func TestRecalibrateCountsShardsThatMoved(t *testing.T) {
	engines := fleet(t, 2, 2, nil)
	c := newCoordinator(t, Config{Engines: engines})
	if n := c.Recalibrate(100); n != 0 {
		t.Fatalf("Recalibrate moved %d shards with nothing observed, want 0", n)
	}
	heavy, err := workload.GammaSizes(400*workload.KB, 200*workload.KB)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRand(1, 2)
	sizes := make([]float64, 200)
	for i := range sizes {
		sizes[i] = heavy.Sample(rng)
	}
	if err := c.AddObject("heavy", sizes); err != nil { // placed on shard 0
		t.Fatal(err)
	}
	openN(t, c, "heavy", 20)
	steps(c, 60)
	before := engines[0].Health().Capacity
	if n := c.Recalibrate(100); n != 1 {
		t.Fatalf("Recalibrate moved %d shards, want 1 (shard 0's limit; shard 1 declines)", n)
	}
	rows := c.Status().Shards
	if got := rows[0].Health.Capacity; got >= before || got != engines[0].Health().Capacity {
		t.Errorf("view capacity of shard 0 = %d, want its engine's shrunk %d (was %d)",
			got, engines[0].Health().Capacity, before)
	}
	if got, want := rows[1].Health.Capacity, engines[1].Health().Capacity; got != want {
		t.Errorf("view capacity of shard 1 = %d, want unchanged %d", got, want)
	}
}

func TestOpenMaterializesAndCompletionReleasesTickets(t *testing.T) {
	jnl := journal.New(journal.Config{})
	c := newCoordinator(t, Config{Engines: fleet(t, 2, 2, withJournal(jnl)), Journal: jnl})
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
	// Every admission names its shard and delay on the timeline.
	recs := jnl.Events(admitEvents())
	if len(recs) != 4 {
		t.Fatalf("journal holds %d admit events, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Shard != handles[i].Shard || engine.StreamID(r.Stream) != handles[i].ID || r.Value != float64(delays[i]) {
			t.Errorf("admit event %d = shard %d stream %d delay %v, want shard %d stream %d delay %d",
				i, r.Shard, r.Stream, r.Value, handles[i].Shard, handles[i].ID, delays[i])
		}
		if r.Object != "short" {
			t.Errorf("admit event %d = %+v, want object short", i, r)
		}
	}
	if c.Route() != RouteRoundRobin {
		t.Errorf("route %q, want the default round-robin", c.Route())
	}
	// A two-fragment stream with startup delay k completes in round k+1
	// and leaves its shard's count.
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
// name the second replica already holds is not placed, on the first
// replica either, and leaves the cursor where it was.
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
	if err := engs[0].(*server.Server).AddObject("y", unitClip(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddObject("y", unitClip(2)); !errors.Is(err, engine.ErrDuplicateObject) {
		t.Fatalf("name held by the second replica: err = %v, want ErrDuplicateObject", err)
	}
	if got := c.candidates("y"); !reflect.DeepEqual(got, c.all) {
		t.Errorf("candidates(y) = %v, want every shard (not placed)", got)
	}
	if err := engs[1].CheckObject("y", engine.Tables(unitClip(2), 1)[0]); err != nil {
		t.Errorf("first replica: %v, want it not to hold y", err)
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

// TestAddObjectHeldByLaterReplicaPlacesNothing: every replica is checked
// before any places, so a name the second replica of the stripe already
// holds (a catalog loaded out of band) leaves the first replica without
// it and its placement stream unmoved: the next object lands there
// exactly as on a fleet that never saw the refused call.
func TestAddObjectHeldByLaterReplicaPlacesNothing(t *testing.T) {
	var fleets [2][]engine.Engine
	var coords [2]*Coordinator
	for i := range fleets {
		fleets[i] = fleet(t, 2, 2, nil)
		coords[i] = newCoordinator(t, Config{Engines: fleets[i], Replicas: 2})
		if err := fleets[i][1].(*server.Server).AddObject("y", unitClip(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := coords[0].AddObject("y", unitClip(3)); !errors.Is(err, engine.ErrDuplicateObject) {
		t.Fatalf("name held by the second replica: err = %v, want ErrDuplicateObject", err)
	}
	if err := fleets[0][0].(*server.Server).AddObject("y", unitClip(2)); err != nil {
		t.Errorf("the first replica holds y after a refused AddObject: %v", err)
	}
	if err := fleets[1][0].(*server.Server).AddObject("y", unitClip(2)); err != nil {
		t.Fatal(err)
	}
	var reports [2][]engine.RoundReport
	for i, c := range coords {
		if err := c.AddObject("z", unitClip(6)); err != nil {
			t.Fatal(err)
		}
		if got := c.candidates("z"); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Errorf("fleet %d: placement[z] = %v, want the stripe y did not take, [0 1]", i, got)
		}
		eng := fleets[i][0]
		if _, _, err := eng.Open("z"); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 6; r++ {
			reports[i] = append(reports[i], eng.Step())
		}
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("the first replica serves z as %+v after a refused AddObject, %+v on a fleet that never saw it",
			reports[0], reports[1])
	}
}

func TestOpenUnknownObjectFailsCleanly(t *testing.T) {
	jnl := journal.New(journal.Config{})
	c := newCoordinator(t, Config{Engines: fleet(t, 2, 2, withJournal(jnl)), Journal: jnl})
	_, _, err := c.Open("ghost")
	if !errors.Is(err, engine.ErrUnknownObject) {
		t.Fatalf("open unknown object: err = %v, want ErrUnknownObject", err)
	}
	if got := c.Tickets(); got != 0 {
		t.Fatalf("failed open leaked %d tickets", got)
	}
	if got := jnl.Events(admitEvents()); len(got) != 0 {
		t.Fatalf("failed open recorded admissions: %+v", got)
	}
}
