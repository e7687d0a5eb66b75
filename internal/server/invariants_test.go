package server

import (
	"fmt"
	"slices"
	"testing"

	"mzqos/internal/fault"
	"mzqos/internal/journal"
)

// invariantsPlan keeps faults coming for as long as the random schedule
// runs: every 120 rounds a latency fault deep enough to shed, every
// fourth one joined mid-window by a disk failure (which closes admission
// while the streams ride it out).
func invariantsPlan() *fault.Plan {
	p := &fault.Plan{Seed: 3}
	for k := 0; k < 40; k++ {
		from := 40 + 120*k
		p.Faults = append(p.Faults, fault.Fault{
			Kind: fault.Latency, Disk: fault.AllDisks, From: from, Until: from + 50, Factor: 1.3 + 0.1*float64(k%5),
		})
		if k%4 == 3 {
			p.Faults = append(p.Faults, fault.Fault{Kind: fault.Failure, Disk: k % 3, From: from + 20, Until: from + 26})
		}
	}
	return p
}

// checkActiveSet verifies what every reader of the active set relies on:
// strict id order (Step's gather order and the binary search, kept by an
// activate that only appends), one count told four ways, by-id lookup
// that finds exactly the active streams, and no active stream that this
// shard's ledger already holds as retired.
func checkActiveSet(lc *lifecycle) error {
	s := lc.s
	perClass := make([]int, len(s.classes))
	for i := range s.active {
		st := &s.active[i]
		if i > 0 && s.active[i-1].id >= st.id {
			return fmt.Errorf("active[%d].id = %d after %d: not strictly ascending", i, st.id, s.active[i-1].id)
		}
		if j, ok := s.find(st.id); !ok || j != i {
			return fmt.Errorf("find(%d) = %d, %v; want %d, true", st.id, j, ok, i)
		}
		if _, _, retired := s.ledger.Retired(s.shard, int64(st.id)); retired {
			return fmt.Errorf("stream %d is both active and retired in this shard's ledger", st.id)
		}
		perClass[st.offset]++
	}
	if classes := s.occupancy(nil); !slices.Equal(perClass, classes) {
		return fmt.Errorf("classes = %v, active set has %v", classes, perClass)
	}
	if n := len(s.active); s.Active() != n || int(s.tel.active.Value()) != n {
		return fmt.Errorf("len(active) = %d, Active() = %d, streams_active gauge = %v", n, s.Active(), s.tel.active.Value())
	}
	ids := s.ActiveStreams()
	if !slices.EqualFunc(ids, s.active, func(id StreamID, st stream) bool { return id == st.id }) {
		return fmt.Errorf("ActiveStreams() = %v is not the active slice's ids", ids)
	}
	return nil
}

// TestActiveSetInvariants drives random interleavings of every operation
// that touches the active set — Open, Close, Export + Import, and Step
// with completions and degrade shedding — and checks the
// set's invariants after each one. A failure names the seed and the op
// count; -run 'TestActiveSetInvariants/seed=N' replays it.
func TestActiveSetInvariants(t *testing.T) {
	const opsPerSeed = 6000
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lc := newLifecycle(t, seed, invariantsPlan(), false)
			// A ledger that keeps the last 64 retirements still holds every
			// one a single op makes, and checkActiveSet scans it once per
			// active stream after every op.
			lc.s.ledger = journal.NewLedger(journal.LedgerConfig{Retired: 64})
			evicted := 0
			for n := 0; n < opsPerSeed; n++ {
				// Opens outweigh the exits, so classes run full and a
				// degraded limit has streams to shed.
				switch op := lc.rng.IntN(numOps + 4); {
				case op < numOps:
					lc.do(op)
				case op < numOps+2:
					lc.do(opOpen)
				default:
					// Not lc.step: its per-round stats digest is the
					// golden test's business and grows with every id.
					rep := lc.s.Step()
					evicted += len(rep.Evicted)
					if len(rep.Evicted) > 0 {
						lc.resume(rep.Evicted[0])
					}
				}
				if err := checkActiveSet(lc); err != nil {
					t.Fatalf("after op %d: %v", n, err)
				}
			}
			if evicted == 0 || lc.migrated == 0 {
				t.Errorf("schedule missed a path: evicted=%d migrated=%d", evicted, lc.migrated)
			}
		})
	}
}

// TestHealthMirrorsTheLoop holds Health, a coordinator's only view of a
// shard's load, to the loop's own state. Its Active and Round are read from
// the telemetry gauges the loop sets, not from len(active) and round, so
// after every op of a seeded faulted schedule with degrade on, the two must
// agree.
func TestHealthMirrorsTheLoop(t *testing.T) {
	lc := newLifecycle(t, 5, invariantsPlan(), false)
	degraded, failed := 0, 0
	for n := 0; n < 6000; n++ {
		switch op := lc.rng.IntN(numOps + 4); {
		case op < numOps:
			lc.do(op)
		case op < numOps+2:
			lc.do(opOpen)
		default:
			if rep := lc.s.Step(); len(rep.Evicted) > 0 {
				lc.resume(rep.Evicted[0])
			}
		}
		s, h := lc.s, lc.s.Health()
		if h.Active != s.Active() || h.Round != s.Round() || h.Capacity != s.Capacity() ||
			h.PerDiskLimit != s.PerDiskLimit() || h.Degraded != s.Degraded() {
			t.Fatalf("after op %d: Health() = %+v; the loop has active %d, round %d, capacity %d, N_max %d, degraded %v",
				n, h, s.Active(), s.Round(), s.Capacity(), s.PerDiskLimit(), s.Degraded())
		}
		if h.Degraded {
			degraded++
		}
		if h.Failed {
			failed++
		}
	}
	if degraded == 0 || failed == 0 {
		t.Errorf("schedule missed a path: %d ops degraded, %d failed", degraded, failed)
	}
}
