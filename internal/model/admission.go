package model

import (
	"cmp"
	"fmt"
	"slices"
)

// Guarantee is a stochastic service-quality target.
//
// With Rounds == 0 it is a per-round guarantee: the probability that a
// round is late must not exceed Threshold (the δ of eq. 3.1.7). With
// Rounds > 0 it is a per-stream guarantee: the probability that a stream
// of Rounds rounds suffers at least Glitches glitches must not exceed
// Threshold (the ε of eq. 3.3.6).
type Guarantee struct {
	Rounds    int
	Glitches  int
	Threshold float64
}

// String renders the guarantee for logs and tables.
func (g Guarantee) String() string {
	if g.Rounds == 0 {
		return fmt.Sprintf("P[round late] <= %g", g.Threshold)
	}
	return fmt.Sprintf("P[>=%d glitches in %d rounds] <= %g", g.Glitches, g.Rounds, g.Threshold)
}

func (g Guarantee) validate() error {
	if !(g.Threshold > 0 && g.Threshold < 1) {
		return fmt.Errorf("%w: threshold must be in (0,1)", ErrConfig)
	}
	if g.Rounds < 0 || (g.Rounds > 0 && (g.Glitches < 0 || g.Glitches > g.Rounds)) {
		return fmt.Errorf("%w: need 0 <= glitches <= rounds", ErrConfig)
	}
	return nil
}

// NMaxFor returns the maximum admissible number of concurrent streams per
// disk under the given guarantee. It is ExplainNMax without the trace,
// and with an unattainable guarantee reported as ErrOverload.
func (m *Model) NMaxFor(g Guarantee) (int, error) {
	exp, err := m.ExplainNMax(g)
	if err != nil {
		return 0, err
	}
	if exp.Overload {
		return 0, ErrOverload
	}
	return exp.NMax, nil
}

// TableEntry is one row of a precomputed admission table.
type TableEntry struct {
	Guarantee Guarantee
	NMax      int
}

// Table is the precomputed lookup table of §5: N_max for a set of
// tolerance thresholds, evaluated once at configuration time so admission
// decisions are O(1) at run time. Rebuild it only when the disk
// configuration or the general data characteristics change.
type Table struct {
	entries []TableEntry
	index   map[Guarantee]int
}

// BuildTable evaluates the model once per guarantee and returns the table.
// Guarantees that are unattainable even at N=1 get NMax = 0. The specs
// share the model's bound chain, so each walk after the first reads what
// an earlier one solved.
func BuildTable(m *Model, specs []Guarantee) (*Table, error) {
	entries := make([]TableEntry, len(specs))
	for i, g := range specs {
		n, err := m.NMaxFor(g)
		if err != nil && err != ErrOverload {
			return nil, err
		}
		entries[i] = TableEntry{Guarantee: g, NMax: n}
	}
	return newTable(entries), nil
}

// newTable indexes and sorts the given rows into a Table.
func newTable(entries []TableEntry) *Table {
	t := &Table{
		entries: entries,
		index:   make(map[Guarantee]int, len(entries)),
	}
	for _, e := range t.entries {
		t.index[e.Guarantee] = e.NMax
	}
	slices.SortStableFunc(t.entries, func(x, y TableEntry) int {
		a, b := x.Guarantee, y.Guarantee
		if c := cmp.Compare(a.Rounds, b.Rounds); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Glitches, b.Glitches); c != 0 {
			return c
		}
		return cmp.Compare(a.Threshold, b.Threshold)
	})
	return t
}

// Lookup returns the precomputed N_max for g.
func (t *Table) Lookup(g Guarantee) (int, bool) {
	n, ok := t.index[g]
	return n, ok
}

// Entries returns the table rows sorted by guarantee.
func (t *Table) Entries() []TableEntry {
	out := make([]TableEntry, len(t.entries))
	copy(out, t.entries)
	return out
}
