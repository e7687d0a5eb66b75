package trace_test

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// recordBytes is what the recorder may keep of one request.
const recordBytes = 32

// TestRetainedBytesPerRequest holds the flight recorder of a loaded 4-disk
// server — filled to 26 streams a disk over its first laps, its 1024-span
// ring full and one snapshot latched by a down round — to one 32-byte
// record per retained request.
// What it retains is read off the heap: live bytes with the recorder
// reachable, less live bytes once it is not. Each span's header is counted
// apart, and so is the allocator's rounding of the ring slots' record
// buffers, which Go's size classes hold under an eighth; the snapshot's
// records are one allocation.
func TestRetainedBytesPerRequest(t *testing.T) {
	const disks, rounds, failAt, openEvery = 4, 800, 780, 3
	s, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults: &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.Failure, Disk: 2, From: failAt, Until: failAt + 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The load ramps up over the first laps of the ring, as a server's
	// does while streams arrive, so its slots see their sweeps grow.
	opened := 0
	for r := 0; r < rounds; r++ {
		if r%openEvery == 0 && opened < s.Capacity() {
			name := fmt.Sprintf("v%d", opened)
			if err := s.AddSyntheticObject(name, rounds); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Open(name); err != nil {
				t.Fatal(err)
			}
			opened++
		}
		s.Step()
	}
	rec := s.Trace()
	s = nil
	st := rec.Stats()
	live := rec.Live()
	snap, ok := rec.Frozen()
	if !ok || len(live) != st.Capacity || len(snap.Spans) != st.Capacity {
		t.Fatalf("live %d spans, frozen %v with %d, want both full (%d)", len(live), ok, len(snap.Spans), st.Capacity)
	}
	requests, liveReqs := 0, 0
	for _, sp := range live {
		liveReqs += len(sp.Requests)
	}
	requests = liveReqs
	for _, sp := range snap.Spans {
		requests += len(sp.Requests)
	}
	spans := len(live) + len(snap.Spans)
	live, snap = nil, trace.Snapshot{}

	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(rec)
	rec = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	retained := int64(with.HeapAlloc) - int64(without.HeapAlloc)
	headers := int64(spans) * int64(unsafe.Sizeof(trace.Span{}))
	perRequest := float64(retained-headers) / float64(requests)
	t.Logf("retained %d B: %d spans (%d B of headers), %d requests (%d live): %.2f B a request beyond the headers",
		retained, spans, headers, requests, liveReqs, perRequest)
	if limit := headers + recordBytes*int64(requests) + recordBytes*int64(liveReqs)/8; retained > limit {
		t.Errorf("the recorder retains %d B, more than %d B: %.2f B a request, want %d and the ring's rounding",
			retained, limit, perRequest, recordBytes)
	}
}
