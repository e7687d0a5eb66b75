package fault_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// fuzzModel is the paper's disk and workload at a one-second round, the
// healthy model every fuzzed fault is taken against.
var fuzzModel = sync.OnceValues(func() (*model.Model, error) {
	return model.New(model.Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 1})
})

// FuzzParsePlan holds ParsePlan to three things: it never panics, every
// plan it accepts reads back as itself through Plan.String, and at every
// edge of an accepted plan — each fault's first round and first healthy
// round, on each disk it names — the healthy model under that round's
// effects is either refused or admits with every b_late(n) through
// N_max + 3 in [0, 1].
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		// TestParsePlanRoundTrip's corpus.
		"latency:disk=0,from=200,until=400,factor=2; rate:disk=1,from=100,until=300,factor=0.5;" +
			"errors:disk=all,from=50,until=60,prob=0.2,retries=2;fail:disk=3,from=500,until=520",
		"melt:disk=0",
		"latency:disk=0,factor",
		"latency:disk=0,factor=2,color=red",
		"latency:disk=x,factor=2",
		"latency:disk=0,from=5,until=2,factor=2",
		// The retry law's and the latency factor's edges.
		"errors:disk=all,prob=1,retries=4",
		"errors:disk=all,prob=0.95,retries=255",
		"latency:disk=0,factor=1e-9",
		"latency:disk=0,factor=1e9",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := fault.ParsePlan(spec, 7)
		if err != nil {
			return
		}
		again, err := fault.ParsePlan(plan.String(), 7)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", spec, plan.String(), err)
		}
		if !reflect.DeepEqual(again, plan) {
			t.Fatalf("%q printed as %q reads back as %+v, not %+v", spec, plan.String(), again, plan)
		}
		healthy, err := fuzzModel()
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.NewInjector(plan, 0)
		if err != nil {
			t.Fatalf("an accepted plan is refused by NewInjector: %v", err)
		}
		seen := map[fault.Effects]bool{}
		for _, flt := range plan.Faults {
			d := max(flt.Disk, 0)
			for _, round := range []int{flt.From, flt.Until} {
				e := inj.EffectsAt(d, round)
				if seen[e] {
					continue
				}
				seen[e] = true
				checkUnder(t, healthy, e)
			}
		}
	})
}

// checkUnder: m under e is refused, or admits with every bound a
// probability.
func checkUnder(t *testing.T, m *model.Model, e fault.Effects) {
	t.Helper()
	u, err := m.Under(e)
	if err != nil {
		return
	}
	exp, err := u.ExplainNMax(model.Guarantee{Threshold: 0.01})
	if err != nil {
		t.Fatalf("under %+v: ExplainNMax: %v", e, err)
	}
	for n := 1; n <= exp.NMax+3; n++ {
		b, err := u.LateBound(n)
		if err != nil {
			t.Fatalf("under %+v: b_late(%d): %v", e, n, err)
		}
		if !(b >= 0 && b <= 1) || math.IsNaN(b) {
			t.Fatalf("under %+v: b_late(%d) = %v, not a probability", e, n, b)
		}
	}
}
