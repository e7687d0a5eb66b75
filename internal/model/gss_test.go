package model

import (
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

func TestGSSOneGroupMatchesBase(t *testing.T) {
	m := paperMultiZoneModel(t)
	rs, err := m.GSSSweep([]int{1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	base, err := m.LateBound(26)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r.LateBound) != math.Float64bits(base) {
		t.Errorf("G=1 GSS bound %v != base bound %v", r.LateBound, base)
	}
	if r.GroupSize != 26 || r.SubPeriod != 1 {
		t.Errorf("G=1 shape: %+v", r)
	}
	// Double buffering at G=1.
	if math.Abs(r.BufferPerStream-2*200000) > 1e-6 {
		t.Errorf("buffer = %v, want 400000", r.BufferPerStream)
	}
}

func TestGSSBufferShrinksWithGroups(t *testing.T) {
	m := paperMultiZoneModel(t)
	rs, err := m.GSSSweep([]int{1, 2, 4, 8}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, r := range rs {
		if !(r.BufferPerStream < prev) {
			t.Errorf("G=%d: buffer %v not below previous %v", r.Groups, r.BufferPerStream, prev)
		}
		prev = r.BufferPerStream
	}
}

func TestGSSAdmissionShrinksWithGroups(t *testing.T) {
	// More groups → shorter sweeps → more seek overhead per request →
	// fewer admissible streams: the GSS trade-off.
	m := paperMultiZoneModel(t)
	rs, err := m.GSSSweep([]int{1, 2, 4}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].AdmittedN > rs[i-1].AdmittedN {
			t.Errorf("G=%d admits %d > previous %d", rs[i].Groups, rs[i].AdmittedN, rs[i-1].AdmittedN)
		}
	}
	// G=1 must reproduce the paper's 26.
	if rs[0].AdmittedN != 26 {
		t.Errorf("G=1 admits %d, want 26", rs[0].AdmittedN)
	}
}

func TestGSSSweep(t *testing.T) {
	m := paperMultiZoneModel(t)
	rs, err := m.GSSSweep([]int{1, 2, 4, 8}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("sweep length %d", len(rs))
	}
	if rs[0].AdmittedN != 26 {
		t.Errorf("G=1 admitted %d, want 26", rs[0].AdmittedN)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].AdmittedN > rs[i-1].AdmittedN {
			t.Errorf("admission not nonincreasing: %+v", rs)
		}
		if rs[i].BufferPerStream >= rs[i-1].BufferPerStream && rs[i].AdmittedN > 0 {
			t.Errorf("buffer not decreasing: %+v", rs)
		}
	}
}

func TestGSSValidation(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.GSSSweep([]int{1, 0}, 0.01); err == nil {
		t.Error("groups=0 should error")
	}
	if _, err := m.GSSSweep([]int{1}, 0); err == nil {
		t.Error("delta=0 should error")
	}
}

func TestGSSOverload(t *testing.T) {
	// Absurdly many groups: even one stream per group cannot meet the
	// subperiod deadline, and more groups than the search cap have a
	// subperiod shorter than a transfer's mean. The sweep reports such
	// entries as zero rather than failing.
	m := paperMultiZoneModel(t)
	rs, err := m.GSSSweep([]int{1, 200, m.maxSearchN + 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs[1:] {
		if r != (GSSResult{Groups: r.Groups}) {
			t.Errorf("unattainable sweep entry = %+v", r)
		}
	}
}

// quarterRoundBound is b_late(k) of the paper's disk with rounds of t/4:
// the chain a four-group subperiod's bound is read off.
func quarterRoundBound(t *testing.T, k int) float64 {
	t.Helper()
	q, err := New(Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.LateBound(k)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGSSSimConsistency(t *testing.T) {
	// A GSS subperiod is exactly a shorter round with fewer requests, so
	// the round machinery of a model with rounds of t/G gives the same
	// bits as the sweep's chain at t/G.
	m := paperMultiZoneModel(t)
	rs, err := m.GSSSweep([]int{4}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if direct := quarterRoundBound(t, r.GroupSize); math.Float64bits(r.LateBound) != math.Float64bits(direct) {
		t.Errorf("GSS bound %v != quarter-round b_late(%d) %v", r.LateBound, r.GroupSize, direct)
	}
}

// TestGSSSweepGolden pins every field of a GSS sweep bit for bit on both
// disk profiles, from one group (the paper's scheme) to groups no stream
// fits into. Each LateBound is the one the walk solved, so at one group it
// is the bits of LateBound(N_max).
func TestGSSSweepGolden(t *testing.T) {
	groups := []int{1, 2, 3, 4, 6, 8, 12, 200}
	for _, tc := range []struct {
		name string
		geom *disk.Geometry
		want []GSSResult
	}{
		{"viking", disk.QuantumViking21(), []GSSResult{
			{Groups: 1, GroupSize: 26, SubPeriod: 1, LateBound: 0.0036107656680471572, BufferPerStream: 399999.99999999994, AdmittedN: 26},
			{Groups: 2, GroupSize: 11, SubPeriod: 0.5, LateBound: 0.0029005548138056605, BufferPerStream: 299999.99999999994, AdmittedN: 22},
			{Groups: 3, GroupSize: 6, SubPeriod: 0.3333333333333333, LateBound: 0.0008632317413948047, BufferPerStream: 266666.6666666666, AdmittedN: 18},
			{Groups: 4, GroupSize: 4, SubPeriod: 0.25, LateBound: 0.0012798892844018664, BufferPerStream: 249999.99999999997, AdmittedN: 16},
			{Groups: 6, GroupSize: 2, SubPeriod: 0.16666666666666666, LateBound: 0.0012427927254250826, BufferPerStream: 233333.3333333333, AdmittedN: 12},
			{Groups: 8, GroupSize: 1, SubPeriod: 0.125, LateBound: 0.0006720827994069509, BufferPerStream: 224999.99999999997, AdmittedN: 8},
			{Groups: 12},
			{Groups: 200},
		}},
		{"synthetic2000", disk.Synthetic2000(), []GSSResult{
			{Groups: 1, GroupSize: 89, SubPeriod: 1, LateBound: 0.004776644263565777, BufferPerStream: 399999.99999999994, AdmittedN: 89},
			{Groups: 2, GroupSize: 40, SubPeriod: 0.5, LateBound: 0.0025112345486108085, BufferPerStream: 299999.99999999994, AdmittedN: 80},
			{Groups: 3, GroupSize: 25, SubPeriod: 0.3333333333333333, LateBound: 0.005048578774687186, BufferPerStream: 266666.6666666666, AdmittedN: 75},
			{Groups: 4, GroupSize: 17, SubPeriod: 0.25, LateBound: 0.0013169122988844453, BufferPerStream: 249999.99999999997, AdmittedN: 68},
			{Groups: 6, GroupSize: 10, SubPeriod: 0.16666666666666666, LateBound: 0.001298059066954907, BufferPerStream: 233333.3333333333, AdmittedN: 60},
			{Groups: 8, GroupSize: 7, SubPeriod: 0.125, LateBound: 0.004074824719153168, BufferPerStream: 224999.99999999997, AdmittedN: 56},
			{Groups: 12, GroupSize: 4, SubPeriod: 0.08333333333333333, LateBound: 0.0007631047770805177, BufferPerStream: 216666.66666666663, AdmittedN: 48},
			{Groups: 200},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{Disk: tc.geom, Sizes: workload.PaperSizes(), RoundLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.GSSSweep(groups, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			for i := range groups {
				if got[i] != tc.want[i] {
					t.Errorf("G=%d:\n got %+v\nwant %+v", groups[i], got[i], tc.want[i])
				}
			}
			if b, err := m.LateBound(got[0].AdmittedN); err != nil || math.Float64bits(b) != math.Float64bits(got[0].LateBound) {
				t.Errorf("G=1 LateBound %v, LateBound(%d) = %v, %v; want the same bits", got[0].LateBound, got[0].AdmittedN, b, err)
			}
		})
	}
}

// TestGSSNMaxStopsAtSearchCap: a group count whose walk passes the search
// cap without a violation admits exactly the cap, as N_max does. The cap
// is lowered so the paper's disk reaches it: G = 4 admits 16 uncapped,
// and its walk reaches a cap of 10 at k = ⌈10/4⌉ = 3.
func TestGSSNMaxStopsAtSearchCap(t *testing.T) {
	m := paperMultiZoneModel(t)
	m.maxSearchN = 10
	got, err := m.GSSSweep([]int{4}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := quarterRoundBound(t, 3)
	if g := got[0]; g.AdmittedN != 10 || g.GroupSize != 3 || math.Float64bits(g.LateBound) != math.Float64bits(want) {
		t.Errorf("GSSSweep(4) under a cap of 10 = %+v; want 10 admitted in groups of 3, LateBound %v", g, want)
	}
}
