package cluster

import (
	"errors"
	"sync"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/sim"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// shedFleet builds n simulated shard engines that evict to the in-force
// limit on degrade (the live server's ShedNewest behavior), which is what
// exercises the evict-to-migrate path.
func shedFleet(t testing.TB, n, numDisks, perDisk int) []engine.Engine {
	t.Helper()
	engines := make([]engine.Engine, n)
	for i := range engines {
		e, err := sim.NewEngine(sim.EngineConfig{
			Disk:          disk.QuantumViking21(),
			NumDisks:      numDisks,
			Sizes:         workload.PaperSizes(),
			RoundLength:   1,
			PerDiskLimit:  perDisk,
			Seed:          1000 + uint64(i),
			ShedOnDegrade: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

// checkTicketInvariant asserts tickets == active streams, per shard and
// cluster-wide — the accounting invariant migration must preserve.
func checkTicketInvariant(t *testing.T, c *Coordinator, label string) {
	t.Helper()
	total := 0
	for _, s := range c.shards {
		tickets := int(s.tickets.Load())
		active := s.eng.Active()
		if tickets != active {
			t.Errorf("%s: shard %d holds %d tickets for %d active streams", label, s.id, tickets, active)
		}
		total += active
	}
	if got := c.Tickets(); got != total {
		t.Errorf("%s: cluster tickets %d != total active %d", label, got, total)
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
// position, recorded in the admission ring, with exact ticket accounting.
func TestMigrationOnDegradeEvict(t *testing.T) {
	engines := shedFleet(t, 2, 2, 8) // capacity 16/shard
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 2,
		Migrate:  true,
		Registry: telemetry.NewRegistry(),
	})
	sizes := make([]float64, 200)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("clip", sizes); err != nil {
		t.Fatal(err)
	}

	openN(t, c, "clip", 12) // 6 per shard under least-loaded, room to spare
	c.Run(3)                // playback advances past fragment 0
	checkTicketInvariant(t, c, "pre-degrade")
	before := make([]int, 2)
	for i, e := range engines {
		before[i] = e.Active()
	}
	if before[0] == 0 {
		t.Fatal("shard 0 got no streams; routing assumption broken")
	}

	engines[0].(*sim.Engine).Degrade(1) // limit 1/disk: most of shard 0 must shed
	rep := c.Step()
	if rep.Evicted == 0 {
		t.Fatal("degrade shed nothing; test needs evictions to migrate")
	}
	if rep.Migrated != rep.Evicted {
		t.Fatalf("migrated %d of %d evicted streams, want all (sibling has room)", rep.Migrated, rep.Evicted)
	}
	if rep.MigrationFailed != 0 {
		t.Fatalf("%d migrations failed with a roomy sibling", rep.MigrationFailed)
	}
	checkTicketInvariant(t, c, "post-migrate")

	// Every migration is in the admission ring: kind migrate, source
	// shard 0, resuming past fragment 0 (playback had advanced).
	migrations := 0
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
	}
	if migrations != rep.Migrated {
		t.Errorf("ring records %d migrations, round reported %d", migrations, rep.Migrated)
	}

	ms := c.MigrationStats()
	if ms.Succeeded != int64(rep.Migrated) || ms.Failed != 0 || ms.Pending != 0 {
		t.Errorf("stats %+v inconsistent with round report %d migrated", ms, rep.Migrated)
	}
}

// TestFailoverDrainsFailedShard covers multipath failover: a full shard
// failure moves the entire active set to the sibling within the budget,
// releasing the source tickets as it drains.
func TestFailoverDrainsFailedShard(t *testing.T) {
	engines := shedFleet(t, 3, 2, 8)
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 3,
		Migrate:  true,
		Registry: telemetry.NewRegistry(),
	})
	sizes := make([]float64, 300)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("clip", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 24)
	c.Run(2)
	failedActive := engines[0].Active()
	if failedActive == 0 {
		t.Fatal("shard 0 got no streams")
	}
	survivors := engines[1].Active() + engines[2].Active()

	engines[0].(*sim.Engine).SetFailed(true)
	rep := c.Step()
	if rep.FailedOver != failedActive {
		t.Fatalf("failed over %d streams, want shard 0's whole active set %d", rep.FailedOver, failedActive)
	}
	if rep.Migrated != failedActive {
		t.Fatalf("resumed %d of %d failed-over streams on siblings", rep.Migrated, failedActive)
	}
	if got := engines[0].Active(); got != 0 {
		t.Errorf("failed shard still has %d active streams", got)
	}
	// The sibling population grew by exactly the drained set (minus any
	// that completed this round, which Run kept short enough to exclude).
	if got := engines[1].Active() + engines[2].Active(); got != survivors+failedActive {
		t.Errorf("siblings hold %d streams, want %d", got, survivors+failedActive)
	}
	checkTicketInvariant(t, c, "post-failover")

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
	engines := shedFleet(t, 2, 2, 16)
	c := newCoordinator(t, Config{
		Engines:       engines,
		Route:         RouteLeastLoaded,
		Replicas:      2,
		Migrate:       true,
		MigrateBudget: 4,
	})
	sizes := make([]float64, 300)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("clip", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 24)
	failedActive := engines[0].Active()
	if failedActive <= 8 {
		t.Fatalf("shard 0 has %d streams, want more than two budget rounds' worth", failedActive)
	}

	engines[0].(*sim.Engine).SetFailed(true)
	drained := 0
	for round := 0; engines[0].Active() > 0; round++ {
		if round > failedActive {
			t.Fatalf("failover stalled: %d streams still on the failed shard", engines[0].Active())
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
	checkTicketInvariant(t, c, "post-paced-failover")
}

// TestReleaseIdempotent is the double-release regression: a ticket can be
// released (or redeemed) exactly once, so caller retry loops with
// deferred cleanup cannot drive the shard ticket count negative.
func TestReleaseIdempotent(t *testing.T) {
	c := newCoordinator(t, Config{Engines: simFleet(t, 1, 2, 4)})

	t.Run("double-release", func(t *testing.T) {
		tk, err := c.Admit("x")
		if err != nil {
			t.Fatal(err)
		}
		if c.Tickets() != 1 {
			t.Fatalf("tickets %d after admit, want 1", c.Tickets())
		}
		c.Release(&tk)
		if !tk.spent {
			t.Error("release should latch the ticket spent")
		}
		c.Release(&tk) // the double release: must be a no-op
		c.Release(&tk)
		if got := c.Tickets(); got != 0 {
			t.Fatalf("tickets %d after double release, want 0 (not negative)", got)
		}
	})

	t.Run("release-after-failed-open", func(t *testing.T) {
		tk, err := c.Admit("x")
		if err != nil {
			t.Fatal(err)
		}
		// OpenReserved fails (object unknown to the engine) and releases
		// the ticket internally; the caller's own cleanup Release — the
		// exact double-decrement of the bug — must then be a no-op.
		if _, _, err := c.OpenReserved(&tk, "no-such-object"); !errors.Is(err, engine.ErrUnknownObject) {
			t.Fatalf("err = %v, want unknown object", err)
		}
		c.Release(&tk)
		if got := c.Tickets(); got != 0 {
			t.Fatalf("tickets %d after failed open + release, want 0", got)
		}
	})

	t.Run("release-after-redeem", func(t *testing.T) {
		e := c.shards[0].eng.(*sim.Engine)
		if err := e.AddSyntheticObject("vod", 50); err != nil {
			t.Fatal(err)
		}
		tk, err := c.Admit("vod")
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := c.OpenReserved(&tk, "vod")
		if err != nil {
			t.Fatal(err)
		}
		c.Release(&tk) // redeemed: the slot belongs to the stream now
		if got := c.Tickets(); got != 1 {
			t.Fatalf("tickets %d after redeem + stray release, want 1 (stream still open)", got)
		}
		if _, _, err := c.OpenReserved(&tk, "vod"); err == nil {
			t.Error("re-redeeming a spent ticket should error")
		}
		if err := c.Close(h); err != nil {
			t.Fatal(err)
		}
		if got := c.Tickets(); got != 0 {
			t.Fatalf("tickets %d after close, want 0", got)
		}
	})
}

// TestTicketsGaugeMatchesTotal is the gauge-race regression: under
// concurrent Admit/Release/Step interleavings the mzqos_cluster_tickets
// gauge must end exactly equal to Tickets() — atomic deltas cannot lose
// updates the way Set-from-recomputed-total did. Run with -race.
func TestTicketsGaugeMatchesTotal(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoordinator(t, Config{
		Engines:  simFleet(t, 4, 2, 256),
		Registry: reg,
	})

	const workers = 8
	const lapsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := make([]Ticket, 0, 32)
			for i := 0; i < lapsPerWorker; i++ {
				if tk, err := c.Admit("x"); err == nil {
					held = append(held, tk)
				}
				if len(held) == cap(held) || (i%3 == 0 && len(held) > 0) {
					c.Release(&held[len(held)-1])
					held = held[:len(held)-1]
				}
				if i%101 == 0 {
					c.Heartbeat() // the old bug: refresh publishing a stale total
				}
			}
			for i := range held {
				c.Release(&held[i])
			}
		}(w)
	}
	wg.Wait()

	if got := c.Tickets(); got != 0 {
		t.Fatalf("tickets %d after all workers released, want 0", got)
	}
	if got := c.tel.tickets.Value(); got != 0 {
		t.Fatalf("mzqos_cluster_tickets gauge %v after all releases, want exactly 0", got)
	}
}

// TestDegradeToZeroThenRestoreRouting is the Failed-vs-zero-capacity
// regression: a shard degraded to zero capacity is not failed — its
// streams ride out the fault in place (no failover drain) while new load
// sheds to siblings — and the restore heartbeat returns traffic to it.
func TestDegradeToZeroThenRestoreRouting(t *testing.T) {
	engines := shedFleet(t, 2, 2, 8)
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 2,
		Migrate:  true, // migration enabled, yet zero-capacity must not drain
	})
	sizes := make([]float64, 300)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("clip", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 12)
	riding := engines[0].Active()
	if riding == 0 {
		t.Fatal("shard 0 got no streams")
	}

	// Degrade to zero capacity — NOT failed. No Step runs before the
	// restore, so the shard's streams stay in place riding out the fault;
	// only the admission view sees the zero.
	engines[0].(*sim.Engine).Degrade(0)
	c.Heartbeat()
	v := c.view.Load()
	if v.shards[0].Capacity != 0 || v.shards[0].Failed {
		t.Fatalf("view after Degrade(0): capacity %d failed %v, want 0/false",
			v.shards[0].Capacity, v.shards[0].Failed)
	}

	// New admissions shed to the sibling while shard 0 shows zero
	// capacity.
	tk, err := c.Admit("clip")
	if err != nil {
		t.Fatal(err)
	}
	if tk.Shard != 1 {
		t.Fatalf("admit routed to zero-capacity shard %d, want sibling 1", tk.Shard)
	}
	c.Release(&tk)

	// Restore: Recalibrate clears the degrade and the next view reopens
	// the shard to new admissions — the bug left it dead forever.
	if _, err := c.Recalibrate(0); err != nil {
		t.Fatal(err)
	}
	admittedTo := map[int]bool{}
	for i := 0; i < 8; i++ {
		tk, err := c.Admit("clip")
		if err != nil {
			t.Fatal(err)
		}
		admittedTo[tk.Shard] = true
		defer c.Release(&tk)
	}
	if !admittedTo[0] {
		t.Error("restored shard 0 never receives traffic again")
	}
}

// TestTicketsMatchActiveAcrossFullCycle walks the complete degrade →
// evict → migrate → fail → failover → restore cycle asserting the
// tickets == active invariant with exact per-shard accounting at every
// phase boundary.
func TestTicketsMatchActiveAcrossFullCycle(t *testing.T) {
	engines := shedFleet(t, 3, 2, 8)
	c := newCoordinator(t, Config{
		Engines:  engines,
		Route:    RouteLeastLoaded,
		Replicas: 3,
		Migrate:  true,
		Registry: telemetry.NewRegistry(),
	})
	sizes := make([]float64, 400)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("clip", sizes); err != nil {
		t.Fatal(err)
	}
	openN(t, c, "clip", 15)
	c.Run(2)
	checkTicketInvariant(t, c, "steady state")
	population := engines[0].Active() + engines[1].Active() + engines[2].Active()

	// Degrade → evict → migrate.
	engines[0].(*sim.Engine).Degrade(2)
	rep := c.Step()
	if rep.Evicted == 0 || rep.Migrated != rep.Evicted {
		t.Fatalf("degrade round: evicted %d migrated %d, want all evictions migrated", rep.Evicted, rep.Migrated)
	}
	checkTicketInvariant(t, c, "after evict+migrate")

	// Fail → failover.
	engines[1].(*sim.Engine).SetFailed(true)
	for rounds := 0; engines[1].Active() > 0; rounds++ {
		if rounds > 30 {
			t.Fatalf("failover stalled with %d streams on the failed shard", engines[1].Active())
		}
		c.Step()
	}
	checkTicketInvariant(t, c, "after failover")

	// Restore both and keep serving.
	if _, err := c.Recalibrate(0); err != nil {
		t.Fatal(err)
	}
	engines[1].(*sim.Engine).SetFailed(false)
	c.Run(3)
	checkTicketInvariant(t, c, "after restore")

	// Conservation: nothing was dropped anywhere in the cycle — every
	// stream is still active somewhere or completed (none could finish,
	// the clip is 400 rounds long and we ran ~10).
	got := engines[0].Active() + engines[1].Active() + engines[2].Active()
	if got != population {
		t.Errorf("population %d after full cycle, want %d (no stream silently dropped)", got, population)
	}
	if ms := c.MigrationStats(); ms.Failed != 0 || ms.Pending != 0 {
		t.Errorf("cycle left %d failed / %d pending migrations, want none", ms.Failed, ms.Pending)
	}
}
