package server

import (
	"errors"
	"fmt"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// TestEveryRejectionIsExplained is the acceptance criterion for admission
// explainability: fill a server to capacity, provoke rejections, and
// check that each one is recorded with the occupancy state that caused it
// AND that the per-disk explanation carries the binding (k, bound, θ,
// slack) tuple deriving the limit the rejection ran into.
func TestEveryRejectionIsExplained(t *testing.T) {
	s := paperServer(t, 2)
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
	if len(st.Rejections) != rejected {
		t.Fatalf("status records %d rejections, want %d", len(st.Rejections), rejected)
	}
	for i, ev := range st.Rejections {
		if ev.Seq != int64(i) {
			t.Errorf("rejection %d has seq %d (gap)", i, ev.Seq)
		}
		if ev.Reason != RejectClassesFull {
			t.Errorf("rejection %d reason = %q, want %q", i, ev.Reason, RejectClassesFull)
		}
		if ev.NMax != s.PerDiskLimit() {
			t.Errorf("rejection %d nmax = %d, want %d", i, ev.NMax, s.PerDiskLimit())
		}
		// classes_full means every class the open could start in sat at
		// N_max; with a full server that is every class.
		for c, occ := range ev.Classes {
			if occ != ev.NMax {
				t.Errorf("rejection %d: class %d at %d, want %d", i, c, occ, ev.NMax)
			}
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
	for c, occ := range st.Classes {
		if occ != st.NMax {
			t.Errorf("live class %d occupancy %d, want %d (full server)", c, occ, st.NMax)
		}
	}
}

// TestOverloadRejectionExplained covers the N_max = 0 path: the rejection
// reason is overload and the explanation says why even one stream is
// inadmissible.
func TestOverloadRejectionExplained(t *testing.T) {
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    1,
		RoundLength: 0.001,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        1,
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
	st := s.AdmissionStatus()
	if len(st.Rejections) != 1 || st.Rejections[0].Reason != RejectOverload {
		t.Fatalf("rejections = %+v, want one overload", st.Rejections)
	}
	exp := st.Explanations[0]
	if !exp.Overload || exp.NMax != 0 || exp.BindingK != 1 {
		t.Errorf("explanation = %+v, want overload with binding k=1", exp)
	}
	if exp.ValueAtBindingK <= 0.01 {
		t.Errorf("overloaded binding value %v should violate the threshold", exp.ValueAtBindingK)
	}
}

// TestRejectionRingBounded proves the rejection history cannot grow
// without bound: past the ring capacity the oldest events age out while
// sequence numbers stay gap-free within the retained window.
func TestRejectionRingBounded(t *testing.T) {
	s := paperServer(t, 1)
	if err := s.AddSyntheticObject("v", 5); err != nil {
		t.Fatal(err)
	}
	// Fill the only class, then hammer rejections past the ring size.
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	total := rejectionRingCap + 17
	for i := 0; i < total; i++ {
		if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	got := s.Rejections()
	if len(got) != rejectionRingCap {
		t.Fatalf("retained %d rejections, want %d", len(got), rejectionRingCap)
	}
	if got[0].Seq != int64(total-rejectionRingCap) {
		t.Errorf("oldest retained seq = %d, want %d", got[0].Seq, total-rejectionRingCap)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("gap: seq %d follows %d", got[i].Seq, got[i-1].Seq)
		}
	}
}
