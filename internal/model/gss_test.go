package model

import (
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

func TestGSSOneGroupMatchesBase(t *testing.T) {
	m := paperMultiZoneModel(t)
	r, err := m.GSS(26, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.LateBound(26)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.LateBound-base) > 1e-12 {
		t.Errorf("G=1 GSS bound %v != base bound %v", r.LateBound, base)
	}
	if r.GroupSize != 26 || math.Abs(r.SubPeriod-1) > 1e-15 {
		t.Errorf("G=1 shape: %+v", r)
	}
	// Double buffering at G=1.
	if math.Abs(r.BufferPerStream-2*200000) > 1e-6 {
		t.Errorf("buffer = %v, want 400000", r.BufferPerStream)
	}
}

func TestGSSBufferShrinksWithGroups(t *testing.T) {
	m := paperMultiZoneModel(t)
	prev := math.Inf(1)
	for _, g := range []int{1, 2, 4, 8} {
		r, err := m.GSS(24, g)
		if err != nil {
			t.Fatal(err)
		}
		if !(r.BufferPerStream < prev) {
			t.Errorf("G=%d: buffer %v not below previous %v", g, r.BufferPerStream, prev)
		}
		prev = r.BufferPerStream
	}
}

func TestGSSAdmissionShrinksWithGroups(t *testing.T) {
	// More groups → shorter sweeps → more seek overhead per request →
	// fewer admissible streams: the GSS trade-off.
	m := paperMultiZoneModel(t)
	prev := math.MaxInt
	for _, g := range []int{1, 2, 4} {
		n, err := m.GSSNMax(g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if n > prev {
			t.Errorf("G=%d admits %d > previous %d", g, n, prev)
		}
		prev = n
	}
	// G=1 must reproduce the paper's 26.
	n1, _ := m.GSSNMax(1, 0.01)
	if n1 != 26 {
		t.Errorf("GSSNMax(1) = %d, want 26", n1)
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
	if _, err := m.GSS(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := m.GSS(5, 6); err == nil {
		t.Error("groups > n should error")
	}
	if _, err := m.GSSNMax(0, 0.01); err == nil {
		t.Error("groups=0 should error")
	}
	if _, err := m.GSSNMax(1, 0); err == nil {
		t.Error("delta=0 should error")
	}
}

func TestGSSOverload(t *testing.T) {
	// Absurdly many groups: even one stream per group cannot meet the
	// subperiod deadline.
	m := paperMultiZoneModel(t)
	if _, err := m.GSSNMax(200, 0.01); err != ErrOverload {
		t.Errorf("err = %v, want ErrOverload", err)
	}
	// The sweep reports unattainable entries as zero rather than failing.
	rs, err := m.GSSSweep([]int{1, 200}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].AdmittedN != 0 {
		t.Errorf("unattainable sweep entry = %+v", rs[1])
	}
}

func TestGSSSimConsistency(t *testing.T) {
	// A GSS subperiod is exactly a shorter round with fewer requests, so
	// the existing round machinery can validate it: the subperiod bound
	// must sit at/above the equivalent round-model bound by construction.
	m := paperMultiZoneModel(t)
	r, err := m.GSS(24, 4) // 6 requests per t/4 subperiod
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.LateBoundAt(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.LateBound-direct) > 1e-12 {
		t.Errorf("GSS bound %v != direct subperiod bound %v", r.LateBound, direct)
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
// and its walk crosses a cap of 10 at k = 3, k·G = 12.
func TestGSSNMaxStopsAtSearchCap(t *testing.T) {
	m := paperMultiZoneModel(t)
	m.maxSearchN = 10
	if n, err := m.GSSNMax(4, 0.01); err != nil || n != 10 {
		t.Errorf("GSSNMax(4) under a cap of 10 = %d, %v; want 10", n, err)
	}
	// GSSSweep's entry is at the group size the cap admits, ⌈10/4⌉ = 3.
	got, err := m.GSSSweep([]int{4}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.GSS(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g := got[0]; g.AdmittedN != 10 || g.GroupSize != 3 || math.Abs(g.LateBound-want.LateBound) > 1e-6*want.LateBound {
		t.Errorf("GSSSweep(4) under a cap of 10 = %+v; want 10 admitted in groups of 3, LateBound ≈ %v", g, want.LateBound)
	}
}
