package cluster

import (
	"fmt"
	"sync"
	"testing"

	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
)

// activeOn reads a shard's open streams from its loop, not from the Health
// mirror the coordinator routes on.
func activeOn(e engine.Engine) int { return e.(*server.Server).Active() }

// checkCapacityInvariant asserts, after a Step, that every shard the view
// does not mark Failed holds no more open streams than its view capacity:
// the §5 limit N ≤ N_max per shard, through degrade sheds and migrations.
// A Failed shard is the exception — its capacity is 0 while the failover
// drain empties it at the migrate budget's pace.
func checkCapacityInvariant(t *testing.T, c *Coordinator, label string) {
	t.Helper()
	v := c.view.Load()
	for i, s := range c.shards {
		h := v.shards[i]
		if active := activeOn(s.eng); !h.Failed && active > h.Capacity {
			t.Errorf("%s: shard %d holds %d streams over its view capacity %d", label, i, active, h.Capacity)
		}
	}
}

// openN opens n streams of the object and returns their handles.
func openN(t testing.TB, c *Coordinator, object string, n int) []Handle {
	t.Helper()
	hs := make([]Handle, 0, n)
	for i := 0; i < n; i++ {
		h, _, err := c.Open(object)
		if err != nil {
			t.Fatalf("open %d/%d: %v", i+1, n, err)
		}
		hs = append(hs, h)
	}
	return hs
}

// TestMigrationOnDegradeEvict is the tentpole scenario at eviction scale:
// a shard degrades, sheds streams, and the coordinator resumes every one
// of them on the sibling replica in the same Step — at their playback
// position, with their startup-delay credit, service and glitch counts,
// recorded in the admission ring, and within every shard's capacity.
func TestMigrationOnDegradeEvict(t *testing.T) {
	// Shard 0's disks run three times slower from round 3 on: N_max 26 → 6.
	engines := fleet(t, 2, 2, onShard(0, slowdown(3, 3, 0)))
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 2,
		Migrate:  true,
		Registry: telemetry.NewRegistry(),
	})
	if err := c.AddObject("clip", unitClip(200)); err != nil {
		t.Fatal(err)
	}

	openN(t, c, "clip", 40) // 20 a shard under least-loaded, 10 an offset class
	steps(c, 3)             // playback advances past fragment 0
	checkCapacityInvariant(t, c, "pre-degrade")
	if activeOn(engines[0]) == 0 {
		t.Fatal("shard 0 got no streams; routing assumption broken")
	}

	rep := c.Step() // shard 0 degrades at the end of round 3 and sheds the newest
	if rep.Evicted == 0 {
		t.Fatal("degrade shed nothing; test needs evictions to migrate")
	}
	if rep.Migrated != rep.Evicted {
		t.Fatalf("migrated %d of %d evicted streams, want all (sibling has room)", rep.Migrated, rep.Evicted)
	}
	if rep.MigrationFailed != 0 {
		t.Fatalf("%d migrations failed with a roomy sibling", rep.MigrationFailed)
	}
	if got, want := activeOn(engines[0]), engines[0].Health().Capacity; got > want {
		t.Errorf("degraded shard 0 keeps %d streams over its capacity %d", got, want)
	}
	checkCapacityInvariant(t, c, "post-migrate")

	// Every migration is in the admission ring: kind migrate, source
	// shard 0, resuming past fragment 0 (playback had advanced).
	migrations := 0
	src, dst := engines[0].(*server.Server), engines[1].(*server.Server)
	var carried, resumed server.StreamStats
	for _, r := range c.Admissions() {
		if r.Kind == "" {
			continue
		}
		migrations++
		if r.Kind != "migrate" || r.From != 0 || r.Shard != 1 {
			t.Errorf("migration record %+v: want kind=migrate from=0 shard=1", r)
		}
		if r.Position == 0 {
			t.Errorf("migration record %+v resumed at fragment 0, want mid-playback", r)
		}
		st, err := dst.Stats(r.Stream)
		if err != nil {
			t.Fatal(err)
		}
		resumed.StartupDelay += st.StartupDelay - r.Delay
		resumed.Served += st.Served
		resumed.Glitches += st.Glitches
	}
	if migrations != rep.Migrated {
		t.Errorf("ring records %d migrations, round reported %d", migrations, rep.Migrated)
	}
	// What the evicted streams had delivered is what their resumed selves
	// carry: delay credit beyond the importing shard's own slotting delay,
	// fragments served, glitches.
	for _, id := range rep.Shards[0].Report.Evicted {
		st, err := src.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		carried.StartupDelay += st.StartupDelay
		carried.Served += st.Served
		carried.Glitches += st.Glitches
	}
	if carried.StartupDelay == 0 || carried.Served == 0 {
		t.Fatalf("evicted streams carry %+v: the check needs delay credit and service to carry", carried)
	}
	if resumed != carried {
		t.Errorf("resumed streams carry delay %d, served %d, glitches %d; evicted ones had %d, %d, %d",
			resumed.StartupDelay, resumed.Served, resumed.Glitches, carried.StartupDelay, carried.Served, carried.Glitches)
	}

	ms := c.MigrationStats()
	if ms.Succeeded != int64(rep.Migrated) || ms.Failed != 0 || ms.Pending != 0 {
		t.Errorf("stats %+v inconsistent with round report %d migrated", ms, rep.Migrated)
	}
}

// TestStatusConcurrentWithMigration calls every report a reader may —
// Status, SLOStatus, TightnessReport, Admissions, MigrationStats, Tickets
// and Round, as the mzserver handlers do — beside a loop that opens streams
// and steps, while a shed wave and a paced failover drain keep rewriting
// the migration queue. Under -race it holds the reports to reads that do
// not touch what the loop writes unguarded.
func TestStatusConcurrentWithMigration(t *testing.T) {
	// Shard 0 sheds from round 3 (×3: N_max 26 → 6) and fails from round 8.
	plan := slowdown(3, 3, 0)
	plan.Faults = append(plan.Faults, outage(8, 0).Faults...)
	engines := fleet(t, 2, 2, onShard(0, plan))
	c := newCoordinator(t, Config{
		Engines:       engines,
		Route:         RouteLeastLoaded,
		Replicas:      2,
		Migrate:       true,
		MigrateBudget: 4,
	})
	if err := c.AddObject("clip", unitClip(200)); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 40)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Status()
				_ = c.SLOStatus()
				_ = c.TightnessReport()
				_ = c.Admissions()
				_ = c.MigrationStats()
				_ = c.Tickets()
				_ = c.Round()
			}
		}
	}()
	queued := false
	for range 20 {
		for k := 0; k < 4; k++ {
			_, _, _ = c.Open("clip")
		}
		c.Step()
		if c.MigrationStats().Pending > 0 {
			queued = true
		}
	}
	close(done)
	wg.Wait()
	if ms := c.MigrationStats(); !queued || ms.Succeeded == 0 || ms.FailoverStreams == 0 {
		t.Fatalf("migrations %+v, queue seen non-empty %v: the run must queue, migrate and fail over", ms, queued)
	}
}

// TestFailoverDrainsFailedShard covers multipath failover: a full shard
// failure moves the entire active set to the siblings within the budget,
// emptying the source shard as it drains.
func TestFailoverDrainsFailedShard(t *testing.T) {
	engines := fleet(t, 3, 2, onShard(0, outage(2, 0)))
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 3,
		Migrate:  true,
		Registry: telemetry.NewRegistry(),
	})
	if err := c.AddObject("clip", unitClip(300)); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 24)
	steps(c, 2)
	failedActive := activeOn(engines[0])
	if failedActive == 0 {
		t.Fatal("shard 0 got no streams")
	}
	survivors := activeOn(engines[1]) + activeOn(engines[2])

	rep := c.Step() // every disk of shard 0 fails in round 2
	if !engines[0].Health().Failed {
		t.Fatal("shard 0 does not report the outage as a failure")
	}
	if rep.FailedOver != failedActive {
		t.Fatalf("failed over %d streams, want shard 0's whole active set %d", rep.FailedOver, failedActive)
	}
	if rep.Migrated != failedActive {
		t.Fatalf("resumed %d of %d failed-over streams on siblings", rep.Migrated, failedActive)
	}
	if got := activeOn(engines[0]); got != 0 {
		t.Errorf("failed shard still has %d active streams", got)
	}
	// The sibling population grew by exactly the drained set (none can
	// have completed: the clip outlasts the run).
	if got := activeOn(engines[1]) + activeOn(engines[2]); got != survivors+failedActive {
		t.Errorf("siblings hold %d streams, want %d", got, survivors+failedActive)
	}
	checkCapacityInvariant(t, c, "post-failover")

	for _, r := range c.Admissions() {
		if r.Kind == "failover" && r.From != 0 {
			t.Errorf("failover record %+v names wrong source", r)
		}
	}
	if ms := c.MigrationStats(); ms.FailoverStreams != int64(failedActive) {
		t.Errorf("failover counter %d, want %d", ms.FailoverStreams, failedActive)
	}
}

// TestFailoverRespectsBudget paces a mass failure: with a budget smaller
// than the failed shard's active set, each round drains at most budget
// streams and the rest follow in later rounds.
func TestFailoverRespectsBudget(t *testing.T) {
	engines := fleet(t, 2, 2, onShard(0, outage(0, 0)))
	c := newCoordinator(t, Config{
		Engines:       engines,
		Route:         RouteLeastLoaded,
		Replicas:      2,
		Migrate:       true,
		MigrateBudget: 4,
	})
	if err := c.AddObject("clip", unitClip(300)); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 24)
	failedActive := activeOn(engines[0])
	if failedActive <= 8 {
		t.Fatalf("shard 0 has %d streams, want more than two budget rounds' worth", failedActive)
	}

	drained := 0
	for round := 0; activeOn(engines[0]) > 0; round++ {
		if round > failedActive {
			t.Fatalf("failover stalled: %d streams still on the failed shard", activeOn(engines[0]))
		}
		rep := c.Step()
		if rep.FailedOver > 4 {
			t.Fatalf("round drained %d streams, budget is 4", rep.FailedOver)
		}
		drained += rep.FailedOver
	}
	if drained != failedActive {
		t.Errorf("drained %d streams total, want %d", drained, failedActive)
	}
	checkCapacityInvariant(t, c, "post-paced-failover")
}

// TestTicketsGaugeMatchesTotal: the loop republishes the
// mzqos_cluster_tickets gauge from the shards' counts wherever it changes a
// population, so over a loop of opens, closes and rounds it equals
// Tickets() after every step, and both end at zero once every stream is
// gone.
func TestTicketsGaugeMatchesTotal(t *testing.T) {
	c := newCoordinator(t, Config{
		Engines:  fleet(t, 4, 4, nil), // 104 a shard: the fleet fills now and then
		Registry: telemetry.NewRegistry(),
		Replicas: 4,
	})
	if err := c.AddObject("x", unitClip(6)); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		if got, want := c.tel.tickets.Value(), float64(c.Tickets()); got != want {
			t.Fatalf("%s: mzqos_cluster_tickets gauge %v, Tickets() %v", label, got, want)
		}
	}
	var held []Handle
	rejected := 0
	for r := 0; r < 200; r++ {
		for k := 0; k < 80; k++ {
			h, _, err := c.Open("x")
			if err != nil {
				rejected++
				continue
			}
			held = append(held, h)
		}
		check(fmt.Sprintf("round %d opens", r))
		// Close every third of this round's streams; the rest complete.
		for i := r % 3; i < len(held); i += 3 {
			if err := c.Close(held[i]); err != nil {
				t.Fatal(err)
			}
		}
		held = held[:0]
		check(fmt.Sprintf("round %d closes", r))
		c.Step()
		check(fmt.Sprintf("round %d step", r))
	}
	if rejected == 0 {
		t.Fatal("the fleet never filled: the loop must exercise rejection")
	}
	steps(c, 10) // every remaining six-fragment stream completes
	if got := c.Tickets(); got != 0 {
		t.Fatalf("tickets %d after every stream completed, want 0", got)
	}
	check("drained")
}

// TestDegradeToZeroThenRestoreRouting is the Failed-vs-zero-capacity
// regression: a shard degraded to zero capacity is not failed — it sheds
// its streams, which migrate to a sibling as evictions, not as a failover
// drain — while new load goes to siblings, and the view after the restore
// returns traffic to it.
func TestDegradeToZeroThenRestoreRouting(t *testing.T) {
	// Shard 0 runs twentyfold slow over rounds [0, 3), which leaves it
	// N_max 0.
	engines := fleet(t, 2, 2, onShard(0, slowdown(20, 0, 3)))
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 2,
		Migrate:  true,
	})
	if err := c.AddObject("clip", unitClip(300)); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 12)
	riding := activeOn(engines[0])
	if riding == 0 {
		t.Fatal("shard 0 got no streams")
	}

	// Degrade to zero capacity — NOT failed. The shard sheds every stream
	// and each one migrates to the sibling; none is drained as a failover.
	rep := c.Step()
	v := c.view.Load()
	if v.shards[0].Capacity != 0 || v.shards[0].Failed {
		t.Fatalf("view after the slowdown: capacity %d failed %v, want 0/false",
			v.shards[0].Capacity, v.shards[0].Failed)
	}
	if rep.Evicted != riding || rep.Migrated != riding || rep.FailedOver != 0 || activeOn(engines[0]) != 0 {
		t.Fatalf("zero-capacity round evicted %d, migrated %d, failed over %d, left %d of %d streams: want %d, %d, 0, 0",
			rep.Evicted, rep.Migrated, rep.FailedOver, activeOn(engines[0]), riding, riding, riding)
	}
	if ms := c.MigrationStats(); ms.FailoverStreams != 0 {
		t.Fatalf("zero capacity drained %d streams as a failover, want 0", ms.FailoverStreams)
	}

	// New admissions shed to the sibling while shard 0 shows zero
	// capacity.
	h, _, err := c.Open("clip")
	if err != nil {
		t.Fatal(err)
	}
	if h.Shard != 1 {
		t.Fatalf("open routed to zero-capacity shard %d, want sibling 1", h.Shard)
	}

	// Restore: the slowdown ends with round 2, and the clean round 3
	// puts the healthy limits back; the next view reopens the shard to
	// new admissions — the bug left it dead forever.
	steps(c, 3)
	if h := engines[0].Health(); h.Degraded || h.Capacity == 0 {
		t.Fatalf("shard 0 after the slowdown: %+v, want healthy limits restored", h)
	}
	admittedTo := map[int]bool{}
	for _, h := range openN(t, c, "clip", 8) {
		admittedTo[h.Shard] = true
	}
	if !admittedTo[0] {
		t.Error("restored shard 0 never receives traffic again")
	}
}

// TestTicketsMatchActiveAcrossFullCycle walks the complete degrade →
// evict → migrate → restore, fail → failover → restore cycle, holding
// every shard to its view capacity after every Step and the population to
// exact conservation. Tickets equal active streams by construction: the
// coordinator counts nothing of its own.
func TestTicketsMatchActiveAcrossFullCycle(t *testing.T) {
	// Shard 0 slows threefold over rounds [2, 4); shard 1 fails over
	// rounds [5, 8).
	engines := fleet(t, 3, 2, func(i int, c *server.Config) {
		c.Faults = map[int]*fault.Plan{0: slowdown(3, 2, 4), 1: outage(5, 8)}[i]
	})
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 3,
		Migrate:  true,
		Registry: telemetry.NewRegistry(),
	})
	if err := c.AddObject("clip", unitClip(400)); err != nil {
		t.Fatal(err)
	}
	step := func(label string) RoundReport {
		t.Helper()
		rep := c.Step()
		checkCapacityInvariant(t, c, fmt.Sprintf("%s, round %d", label, rep.Round))
		return rep
	}
	openN(t, c, "clip", 60)
	step("steady state")
	step("steady state")
	population := activeOn(engines[0]) + activeOn(engines[1]) + activeOn(engines[2])

	// Degrade → evict → migrate.
	rep := step("evict+migrate")
	if rep.Evicted == 0 || rep.Migrated != rep.Evicted {
		t.Fatalf("degrade round: evicted %d migrated %d, want all evictions migrated", rep.Evicted, rep.Migrated)
	}

	// Restore shard 0 (round 4), then fail shard 1 → failover (round 5).
	for rounds := 0; activeOn(engines[1]) > 0 || !engines[1].Health().Failed; rounds++ {
		if rounds > 30 {
			t.Fatalf("failover stalled with %d streams on the failed shard", activeOn(engines[1]))
		}
		step("failover")
	}

	// Shard 1 comes back (round 8) and everything keeps serving.
	for range 4 {
		step("restore")
	}
	for i, e := range engines {
		if h := e.Health(); h.Degraded || h.Failed {
			t.Errorf("shard %d not restored after its fault window: %+v", i, h)
		}
	}

	// Conservation: nothing was dropped anywhere in the cycle — every
	// stream is still active somewhere or completed (none could finish,
	// the clip is 400 rounds long and we ran ~10).
	got := activeOn(engines[0]) + activeOn(engines[1]) + activeOn(engines[2])
	if got != population {
		t.Errorf("population %d after full cycle, want %d (no stream silently dropped)", got, population)
	}
	if ms := c.MigrationStats(); ms.Failed != 0 || ms.Pending != 0 {
		t.Errorf("cycle left %d failed / %d pending migrations, want none", ms.Failed, ms.Pending)
	}
}
