package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	opts := QuickOptions()
	for _, id := range All() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, opts)
			if err != nil {
				t.Fatalf("Run(%q): %v", id, err)
			}
			if tbl.ID != id {
				t.Errorf("table ID = %q, want %q", tbl.ID, id)
			}
			if len(tbl.Rows) == 0 {
				t.Error("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row width %d != header width %d: %v", len(row), len(tbl.Header), row)
				}
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			if !strings.Contains(buf.String(), tbl.Title) {
				t.Error("render missing title")
			}
		})
	}
}

// TestQuickOutputDigest pins what `mzexp -quick` prints, timing lines
// aside: the FNV-1a digest of every experiment rendered at QuickOptions.
// The simulated estimators split their trials into fixed seeded shares,
// so the digest holds at any GOMAXPROCS; it moves only when a number does,
// and then results_full_scale.txt and EXPERIMENTS.md are regenerated with
// it (make repro holds the full-scale run).
func TestQuickOutputDigest(t *testing.T) {
	h := fnv.New64a()
	for _, id := range All() {
		tbl, err := Run(id, QuickOptions())
		if err != nil {
			t.Fatalf("Run(%q): %v", id, err)
		}
		tbl.Render(h)
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "ad2517fd927c3ab8"; got != want {
		t.Errorf("quick output digest = %s, want %s", got, want)
	}
}

// TestAblationNMaxGolden pins the admission limits the A1 and A2
// ablations print for each tail functional at δ = 1 %, the values
// results_full_scale.txt records.
func TestAblationNMaxGolden(t *testing.T) {
	a1, err := AblationBounds(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AblationScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ got, want string }{
		{a1.Notes[0], "admitted streams at delta=1%: Chernoff 26, Chebyshev 17, CLT 28"},
		{a2.Notes[0], "admitted streams at delta=1%: SCAN+Chernoff 26, indep+CLT 25, indep+Chebyshev 15"},
	} {
		if tc.got != tc.want {
			t.Errorf("note %q, want %q", tc.got, tc.want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", QuickOptions()); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestE2Numbers(t *testing.T) {
	tbl, err := E2MultiZone()
	if err != nil {
		t.Fatal(err)
	}
	// Find the N=26 row and check our bound is near the paper's.
	for _, row := range tbl.Rows {
		if row[0] == "26" {
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0.002 || v > 0.005 {
				t.Errorf("b_late(26) rendered as %v, want ≈0.0036", v)
			}
			return
		}
	}
	t.Fatal("no N=26 row")
}

func TestFigure1BoundDominates(t *testing.T) {
	tbl, err := Figure1(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		analytic, err1 := strconv.ParseFloat(row[1], 64)
		simulated, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("parse row %v: %v %v", row, err1, err2)
		}
		// Conservative model: the bound should not fall below the
		// simulated estimate by more than simulation noise.
		if simulated > analytic+0.02 {
			t.Errorf("N=%s: simulated %v well above analytic %v", row[0], simulated, analytic)
		}
	}
}

func TestWorstCaseTable(t *testing.T) {
	tbl, err := E4WorstCase()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "10" || tbl.Rows[1][1] != "14" {
		t.Errorf("worst-case N: %v / %v, want 10 / 14", tbl.Rows[0][1], tbl.Rows[1][1])
	}
	if tbl.Rows[2][1] != "26" || tbl.Rows[3][1] != "28" {
		t.Errorf("stochastic N: %v / %v, want 26 / 28", tbl.Rows[2][1], tbl.Rows[3][1])
	}
}

func TestDefaultOptionsPaperScale(t *testing.T) {
	o := DefaultOptions()
	if o.Rounds != 1200 || o.Glitches != 12 {
		t.Errorf("defaults %+v should match the paper's M=1200, g=12", o)
	}
	if o.Figure1Trials < 50000 {
		t.Errorf("default Figure-1 trials %d too small for a 1%% tail", o.Figure1Trials)
	}
}
