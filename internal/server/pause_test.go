package server

import (
	"errors"
	"fmt"
	"testing"
)

func TestPauseReleasesSlot(t *testing.T) {
	s := paperServer(t, 1)
	if err := s.AddSyntheticObject("v", 200); err != nil {
		t.Fatal(err)
	}
	var ids []StreamID
	for i := 0; i < s.PerDiskLimit(); i++ {
		id, _, err := s.Open("v")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Full: next open rejected.
	if _, _, err := s.Open("v"); !errors.Is(err, ErrRejected) {
		t.Fatalf("expected rejection at capacity")
	}
	// Pause one: a new stream fits.
	if err := s.Pause(ids[0]); err != nil {
		t.Fatal(err)
	}
	if s.Paused() != 1 || s.Active() != s.PerDiskLimit()-1 {
		t.Errorf("paused=%d active=%d", s.Paused(), s.Active())
	}
	if _, _, err := s.Open("v"); err != nil {
		t.Errorf("open after pause: %v", err)
	}
	// Now full again: resume must be rejected, stream stays paused.
	if _, err := s.Resume(ids[0]); !errors.Is(err, ErrRejected) {
		t.Errorf("resume at capacity err = %v, want ErrRejected", err)
	}
	if s.Paused() != 1 {
		t.Errorf("paused stream lost on rejected resume")
	}
}

func TestPauseResumeRoundTrip(t *testing.T) {
	s := paperServer(t, 4)
	if err := s.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	id, delay, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	s.Run(delay + 10)
	before, err := s.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if before.Served != 10 {
		t.Fatalf("served = %d, want 10", before.Served)
	}
	if err := s.Pause(id); err != nil {
		t.Fatal(err)
	}
	// Paused streams do not advance.
	s.Run(5)
	mid, err := s.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Served != 10 {
		t.Errorf("paused stream advanced to %d", mid.Served)
	}
	// Resume and finish: total served equals the object length.
	rdelay, err := s.Resume(id)
	if err != nil {
		t.Fatal(err)
	}
	if rdelay < 0 || rdelay >= 4 {
		t.Errorf("resume delay = %d", rdelay)
	}
	s.Run(rdelay + 90)
	after, err := s.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Done || after.Served != 100 {
		t.Errorf("after resume: %+v, want done with 100 served", after)
	}
}

func TestPauseIdempotentAndErrors(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 50); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(id); err != nil {
		t.Errorf("double pause err = %v, want nil (idempotent)", err)
	}
	if _, err := s.Resume(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(id); err != nil {
		t.Errorf("double resume err = %v, want nil (idempotent)", err)
	}
	if err := s.Pause(9999); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("pause unknown err = %v", err)
	}
	if _, err := s.Resume(9999); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("resume unknown err = %v", err)
	}
}

func TestClosePausedStream(t *testing.T) {
	s := paperServer(t, 2)
	if err := s.AddSyntheticObject("v", 50); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if err := s.Pause(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(id); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Error("closed paused stream should not be Done")
	}
	if s.Paused() != 0 {
		t.Error("paused count not cleared")
	}
	// Class accounting stayed balanced: we can still fill to capacity.
	for i := 0; i < s.Capacity(); i++ {
		if _, _, err := s.Open("v"); err != nil {
			t.Fatalf("refill %d: %v", i, err)
		}
	}
}

func TestResumeContinuityAcrossDisks(t *testing.T) {
	// The resumed stream must keep reading consecutive fragments from the
	// right disks: over D rounds after resume it touches each disk once.
	s := paperServer(t, 3)
	if err := s.AddSyntheticObject("v", 60); err != nil {
		t.Fatal(err)
	}
	id, delay, err := s.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	s.Run(delay + 7)
	if err := s.Pause(id); err != nil {
		t.Fatal(err)
	}
	s.Run(4)
	rdelay, err := s.Resume(id)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for r := 0; r < rdelay+3; r++ {
		rep := s.Step()
		for d, dr := range rep.Disks {
			if dr.Requests > 0 {
				seen[d] += dr.Requests
			}
		}
	}
	// Exactly 3 fragments served after resume, one per disk.
	total := 0
	for d, c := range seen {
		if c != 1 {
			t.Errorf("disk %d served %d, want 1", d, c)
		}
		total += c
	}
	if total != 3 {
		t.Errorf("served %d fragments over the resume window, want 3", total)
	}
	st, _ := s.Stats(id)
	if st.Served != 10 {
		t.Errorf("served = %d, want 10 (7 before + 3 after)", st.Served)
	}
}

func TestPauseManyInterleaved(t *testing.T) {
	s := paperServer(t, 2)
	for i := 0; i < 30; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 100); err != nil {
			t.Fatal(err)
		}
	}
	var ids []StreamID
	for i := 0; i < 30; i++ {
		id, _, err := s.Open(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Run(10)
	for i, id := range ids {
		if i%3 == 0 {
			if err := s.Pause(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run(10)
	for i, id := range ids {
		if i%3 == 0 {
			if _, err := s.Resume(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run(10)
	// All streams still accounted for; no class leaks.
	if s.Active()+s.Paused() != 30 {
		t.Errorf("active %d + paused %d != 30", s.Active(), s.Paused())
	}
	var classSum int
	for _, c := range s.occupancy(nil) {
		if c < 0 {
			t.Fatalf("negative class count: %v", s.occupancy(nil))
		}
		classSum += c
	}
	if classSum != s.Active() {
		t.Errorf("class sum %d != active %d", classSum, s.Active())
	}
}
