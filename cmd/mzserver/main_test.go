package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"mzqos/internal/journal"
)

// TestLogJournal renders a 4-slot journal between appends: each render
// writes the events since the last one in seq order, a ring that lapped in
// between costs one Warn record naming the lost range, and a render with
// nothing new writes nothing.
func TestLogJournal(t *testing.T) {
	jnl := journal.New(journal.Config{Capacity: 4})
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			jnl.Append(&journal.Event{Kind: journal.KindReject, Round: i, Disk: -1, From: -1, To: -1, Object: "clip", Detail: "capacity"})
		}
	}
	render := func(after uint64) (uint64, []map[string]any) {
		t.Helper()
		buf.Reset()
		seq := logJournal(log, jnl, after)
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("record %q: %v", line, err)
			}
			recs = append(recs, rec)
		}
		return seq, recs
	}
	checkEvents := func(recs []map[string]any, first uint64) {
		t.Helper()
		for i, rec := range recs {
			if rec["level"] != "INFO" || rec["msg"] != "reject" || rec["seq"] != float64(first+uint64(i)) ||
				rec["object"] != "clip" || rec["detail"] != "capacity" || rec["disk"] != float64(-1) {
				t.Errorf("record %d = %v, want INFO reject seq %d with the event's fields", i, rec, first+uint64(i))
			}
			if _, ok := rec["stream"]; ok {
				t.Errorf("record %d carries stream, which /timeline omits when 0: %v", i, rec)
			}
		}
	}

	appendN(2)
	seq, recs := render(0)
	if seq != 2 || len(recs) != 2 {
		t.Fatalf("after 2 appends: seq %d, %d records; want 2, 2", seq, len(recs))
	}
	checkEvents(recs, 1)

	appendN(6) // seqs 3..8 into 4 slots: 3 and 4 are overwritten
	seq, recs = render(seq)
	if seq != 8 || len(recs) != 5 {
		t.Fatalf("after 6 more: seq %d, %d records; want 8, 5 (loss + 4)", seq, len(recs))
	}
	if loss := recs[0]; loss["level"] != "WARN" || loss["first_seq"] != float64(3) || loss["lost"] != float64(2) {
		t.Errorf("loss record = %v, want WARN first_seq 3 lost 2", loss)
	}
	checkEvents(recs[1:], 5)

	if seq, recs = render(seq); seq != 8 || len(recs) != 0 {
		t.Errorf("nothing new: seq %d, %d records; want 8, 0", seq, len(recs))
	}
}
