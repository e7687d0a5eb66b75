package server

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/slo"
	"mzqos/internal/workload"
)

func (d digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d digest) event(e journal.Event) {
	d.u64(e.Seq)
	d.int(e.Round)
	d.int(int(e.Kind))
	d.int(e.Shard)
	d.int(e.Disk)
	d.u64(uint64(e.Stream))
	d.str(e.Object)
	d.int(e.From)
	d.int(e.To)
	d.str(e.Target)
	d.f64(e.Value)
	d.f64(e.Budget)
	d.u64(e.TraceSeq)
	d.str(e.Detail)
}

// Rounds of the timeline golden's script, named after what each one forces.
const (
	tlDegrade     = 12 // third round of the mild slowdown: a quiet degrade
	tlRestore     = 22 // third clean round after it
	tlFailFrom    = 40 // disk 1 fails: down rounds, both alerts fire on budgets of 0
	tlRecalibrate = 44 // refit under the standing failure, re-degraded the same round
	tlFailUntil   = 46 // disk 1 returns
	tlBlip        = 60 // one down round, alerts held quiet by a budget of 1
	tlQuietFire   = 61 // budgets drop to 0 in a round with nothing else to freeze on
	tlRounds      = 70
)

// timelinePlan puts a fault edge on round 0, edges on three consecutive
// rounds (a clear and an inject sharing round 1), a slowdown mild enough
// to degrade without a glitch, a disk failure that outlasts the debounce,
// and a one-round failure that does not.
func timelinePlan() *fault.Plan {
	return &fault.Plan{
		Seed: 9,
		Faults: []fault.Fault{
			{Kind: fault.ReadError, Disk: 0, From: 0, Until: 1, Prob: 0.5, Retries: 1},
			{Kind: fault.Latency, Disk: 1, From: 1, Until: 2, Factor: 1.1},
			{Kind: fault.ZoneRate, Disk: 0, From: tlDegrade - 2, Until: tlRestore - 2, Factor: 0.95},
			{Kind: fault.Failure, Disk: 1, From: tlFailFrom, Until: tlFailUntil},
			{Kind: fault.Failure, Disk: 0, From: tlBlip, Until: tlBlip + 1},
		},
	}
}

// TestTimelineOrderGolden pins the journal of one server bit for bit:
// every field of every event, so both what each emitter writes and the
// order the emitters write in inside a round. The script forces the
// orderings that moving an emitter can break — a freeze latched by a
// limit change (degrade: freeze first; restore: limit first), both SLO
// targets transitioning in one round beside a latching freeze, a firing
// whose own freeze latches after both of the round's slo events, fault
// edges on round 0 and on consecutive rounds — and asserts each one by
// name before comparing the digest. The constant moved once when a
// firing alert came to resolve only on both windows and slo events came
// to carry their windows' counts: three resolutions moved (rounds 8 and
// 53 to 32 and 60; the one at 68 went, its alert still firing at the
// end), every other event kept its round and order.
func TestTimelineOrderGolden(t *testing.T) {
	const want = 0x652ba43793a44ce0
	jnl := journal.New(journal.Config{})
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults:      timelinePlan(),
		Degrade:     DegradeConfig{Enabled: true},
		SLO:         slo.Config{FastWindow: 8, SlowWindow: 32, ResolvedFor: 4},
		Journal:     jnl,
		Ledger:      journal.NewLedger(journal.LedgerConfig{}),
		Shard:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity()+2; i++ { // the last two are rejected
		name := fmt.Sprintf("v%d", i)
		if err := s.AddSyntheticObject(name, 200); err != nil {
			t.Fatal(err)
		}
		s.Open(name)
	}
	for r := 0; r < tlRounds; r++ {
		switch r {
		case tlFailFrom:
			// One down round on two disks is 2 late disk-rounds: too few to
			// reject b_late at Alpha, but any count rejects a budget of 0.
			s.SLOAuditor().SetBudgets(0, 0)
			s.Trace().Clear()
		case tlDegrade, tlRestore:
			s.Trace().Clear()
		case tlRecalibrate:
			if _, _, err := s.Recalibrate(2); err != nil {
				t.Fatal(err)
			}
		case tlBlip:
			s.SLOAuditor().SetBudgets(1, 1) // no count rejects a budget of 1: nothing fires on the down round
		case tlQuietFire:
			s.SLOAuditor().SetBudgets(0, 0)
			s.Trace().Clear()
		}
		if s.Round() != r || s.SLOAuditor().Status().Round != r {
			t.Fatalf("round %d: server at %d, auditor at %d", r, s.Round(), s.SLOAuditor().Status().Round)
		}
		s.Step()
	}
	if _, _, err := s.Recalibrate(2); err != nil {
		t.Fatal(err)
	}

	events := jnl.Events(journal.MatchAll())
	d := digest{fnv.New64a()}
	byRound := make(map[int][]string)
	for _, e := range events {
		d.event(e)
		name := e.Kind.String()
		switch e.Kind {
		case journal.KindFreeze:
			name += ":" + e.Detail
		case journal.KindSLOPending, journal.KindSLOFiring, journal.KindSLOResolved:
			name += ":" + e.Target
		case journal.KindFaultInject, journal.KindFaultClear:
			name += fmt.Sprintf(":%d", e.Disk)
		}
		byRound[e.Round] = append(byRound[e.Round], name)
	}
	// inOrder reports whether names appear in the round's events in the
	// given order, other events allowed between them.
	inOrder := func(round int, names ...string) bool {
		i := 0
		for _, got := range byRound[round] {
			if i < len(names) && got == names[i] {
				i++
			}
		}
		return i == len(names)
	}
	for _, c := range []struct {
		what  string
		round int
		names []string
	}{
		{"fault edge on round 0", 0, []string{"fault_inject:0"}},
		{"clear and inject sharing round 1", 1, []string{"fault_clear:0", "fault_inject:1"}},
		{"edge on the third consecutive round", 2, []string{"fault_clear:1"}},
		{"degrade freezes, then changes the limit", tlDegrade, []string{"freeze:degrade", "degrade", "evict"}},
		{"restore changes the limit, then freezes", tlRestore, []string{"restore", "freeze:restore"}},
		{"both alerts fire beside the down round's freeze", tlFailFrom,
			[]string{"fault_inject:1", "freeze:down_round", "glitch", "slo_firing:late", "slo_firing:glitch"}},
		{"a failure degrade", tlFailFrom + 2, []string{"degrade"}},
		{"recalibrate under a standing failure, degraded again the same round", tlRecalibrate, []string{"recalibrate", "degrade"}},
		{"the disk returns", tlFailUntil, []string{"fault_clear:1"}},
		{"both slo events precede the firing's freeze", tlQuietFire,
			[]string{"fault_clear:0", "slo_firing:late", "slo_firing:glitch", "freeze:slo_late"}},
		{"the closing recalibrate", tlRounds, []string{"recalibrate"}},
	} {
		if !inOrder(c.round, c.names...) {
			t.Errorf("%s: round %d has %v, want %v in that order", c.what, c.round, byRound[c.round], c.names)
		}
	}
	if got := d.h.Sum64(); got != want {
		t.Errorf("timeline digest = %#x over %d events, want %#x", got, len(events), uint64(want))
	}
	if t.Failed() {
		for r := 0; r <= tlRounds; r++ {
			if len(byRound[r]) > 0 {
				t.Logf("round %d: %v", r, byRound[r])
			}
		}
	}
}
