package server

import (
	"errors"
	"fmt"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// TestEveryRejectionIsExplained is the acceptance criterion for admission
// explainability: fill a server to capacity, provoke rejections, and
// check that each one is recorded on the journal with the reason and the
// limit that caused it, beside the full occupancy, AND that the per-disk
// explanation carries the binding (k, bound, θ, slack) tuple deriving the
// limit the rejection ran into.
func TestEveryRejectionIsExplained(t *testing.T) {
	s, jnl, _ := journaledServer(t, 2, nil, DegradeConfig{})
	cap := s.Capacity()
	for i := 0; i < cap+3; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 50); err != nil {
			t.Fatal(err)
		}
	}
	rejected := 0
	for i := 0; i < cap+3; i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatal(err)
			}
			rejected++
		}
	}
	if rejected != 3 {
		t.Fatalf("rejected %d opens, want 3 past capacity %d", rejected, cap)
	}

	st := s.AdmissionStatus()
	rejs := jnl.Events(rejectEvents())
	if len(rejs) != rejected {
		t.Fatalf("journal records %d rejections, want %d", len(rejs), rejected)
	}
	for i, ev := range rejs {
		if ev.Seq != rejs[0].Seq+uint64(i) {
			t.Errorf("rejection %d has seq %d after %d (gap)", i, ev.Seq, rejs[0].Seq)
		}
		if want := fmt.Sprintf("v%d", cap+i); ev.Object != want || ev.Round != 0 || ev.Stream != 0 {
			t.Errorf("rejection %d = %+v, want %s turned away at round 0", i, ev, want)
		}
		if ev.Detail != RejectClassesFull {
			t.Errorf("rejection %d reason = %q, want %q", i, ev.Detail, RejectClassesFull)
		}
		if ev.Value != float64(s.PerDiskLimit()) {
			t.Errorf("rejection %d nmax = %v, want %d", i, ev.Value, s.PerDiskLimit())
		}
	}

	// The explanation side: every disk's decision trace must carry the
	// binding tuple that derived the limit the rejections ran into.
	if len(st.Explanations) != s.NumDisks() {
		t.Fatalf("%d explanations for %d disks", len(st.Explanations), s.NumDisks())
	}
	for d, exp := range st.Explanations {
		if exp.NMax != st.NMax {
			t.Errorf("disk %d explains N_max %d, limit in force is %d", d, exp.NMax, st.NMax)
		}
		if exp.Bound != "b_late" {
			t.Errorf("disk %d bound = %q, want b_late for a per-round guarantee", d, exp.Bound)
		}
		if exp.BindingK != exp.NMax+1 {
			t.Errorf("disk %d binding k = %d, want %d", d, exp.BindingK, exp.NMax+1)
		}
		if !(exp.Theta > 0) {
			t.Errorf("disk %d θ = %v, want positive", d, exp.Theta)
		}
		if !(exp.Slack >= 0) || exp.ValueAtNMax > s.cfg.Guarantee.Threshold {
			t.Errorf("disk %d slack %v / value %v inconsistent with threshold %v",
				d, exp.Slack, exp.ValueAtNMax, s.cfg.Guarantee.Threshold)
		}
		if exp.ValueAtBindingK <= s.cfg.Guarantee.Threshold {
			t.Errorf("disk %d binding value %v does not violate threshold", d, exp.ValueAtBindingK)
		}
	}
	if st.BindingDisk < 0 || st.BindingDisk >= s.NumDisks() {
		t.Errorf("binding disk = %d", st.BindingDisk)
	}
	if st.Capacity != cap || st.NMax != s.PerDiskLimit() {
		t.Errorf("status limits (%d, %d) != server (%d, %d)", st.NMax, st.Capacity, s.PerDiskLimit(), cap)
	}
	// classes_full means every class the open could start in sat at
	// N_max; with a full server that is every class.
	for c, occ := range st.Classes {
		if occ != st.NMax {
			t.Errorf("live class %d occupancy %d, want %d (full server)", c, occ, st.NMax)
		}
	}
}

// rejectEvents filters a journal for reject events.
func rejectEvents() journal.Filter {
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindReject}
	return f
}

// TestOverloadRejectionExplained covers the N_max = 0 path: the rejection
// reason is overload and the explanation says why even one stream is
// inadmissible.
func TestOverloadRejectionExplained(t *testing.T) {
	jnl := journal.New(journal.Config{})
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 0.001,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        1,
		Journal:     jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("v", 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
		t.Fatalf("Open err = %v, want ErrRejected", err)
	}
	rejs := jnl.Events(rejectEvents())
	if len(rejs) != 1 || rejs[0].Detail != RejectOverload || rejs[0].Value != 0 || rejs[0].Object != "v" {
		t.Fatalf("rejections = %+v, want one overload of v at N_max 0", rejs)
	}
	exp := s.AdmissionStatus().Explanations[0]
	if !exp.Overload || exp.NMax != 0 || exp.BindingK != 1 {
		t.Errorf("explanation = %+v, want overload with binding k=1", exp)
	}
	if exp.ValueAtBindingK <= 0.01 {
		t.Errorf("overloaded binding value %v should violate the threshold", exp.ValueAtBindingK)
	}
}

// TestRejectionRingBounded proves the rejection record cannot grow without
// bound: it is the journal's ring, so past the journal's capacity the
// oldest reject events age out, the retained ones stay the newest and
// gap-free, and the counter keeps the total.
func TestRejectionRingBounded(t *testing.T) {
	const capacity = 64
	jnl := journal.New(journal.Config{Capacity: capacity})
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Journal:     jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSyntheticObject("v", 5); err != nil {
		t.Fatal(err)
	}
	// Fill the only class, then hammer rejections past the ring size.
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	total := capacity + 17
	for i := 0; i < total; i++ {
		if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	got := jnl.Events(rejectEvents())
	if len(got) != capacity {
		t.Fatalf("retained %d rejections, want %d", len(got), capacity)
	}
	if want := uint64(s.Capacity() + total - capacity + 1); got[0].Seq != want {
		t.Errorf("oldest retained seq = %d, want %d", got[0].Seq, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("gap: seq %d follows %d", got[i].Seq, got[i-1].Seq)
		}
	}
	if n := s.tel.rejected.Value(); n != int64(total) {
		t.Errorf("rejection counter = %d, want %d", n, total)
	}
}
