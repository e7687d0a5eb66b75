package fault

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mzqos/internal/disk"
)

func TestValidate(t *testing.T) {
	bad := []Fault{
		{Kind: Latency, Disk: 0, From: 0, Until: 10},                // factor 0
		{Kind: Latency, Disk: 5, From: 0, Until: 10, Factor: 2},     // disk out of range (4 disks)
		{Kind: Latency, Disk: -2, From: 0, Until: 10, Factor: 2},    // bad disk
		{Kind: Latency, Disk: 0, From: 10, Until: 5, Factor: 2},     // inverted interval
		{Kind: Latency, Disk: 0, From: -1, Until: 5, Factor: 2},     // negative from
		{Kind: ReadError, Disk: 0, From: 0, Until: 10, Prob: 1.5},   // prob > 1
		{Kind: ReadError, Disk: 0, From: 0, Until: 10, Retries: -1}, // negative retries
		{Kind: Kind(99), Disk: 0, From: 0, Until: 10},               // unknown kind
		{Kind: ZoneRate, Disk: 0, From: 0, Until: 10, Factor: -0.5}, // negative factor
	}
	for i, f := range bad {
		if err := (Plan{Faults: []Fault{f}}).Validate(4); err == nil {
			t.Errorf("fault %d (%+v) should fail validation", i, f)
		}
	}
	good := Plan{Faults: []Fault{
		{Kind: Latency, Disk: AllDisks, From: 0, Until: 0, Factor: 2},
		{Kind: Failure, Disk: 3, From: 100, Until: 120},
		{Kind: ReadError, Disk: 0, From: 5, Until: 10, Prob: 0.25, Retries: 2},
	}}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestEffectsComposition(t *testing.T) {
	plan := Plan{Faults: []Fault{
		{Kind: Latency, Disk: 0, From: 10, Until: 20, Factor: 2},
		{Kind: Latency, Disk: AllDisks, From: 15, Until: 25, Factor: 1.5},
		{Kind: ZoneRate, Disk: 0, From: 10, Until: 30, Factor: 0.5},
		{Kind: ReadError, Disk: 1, From: 0, Until: 0, Prob: 0.5, Retries: 1},
		{Kind: ReadError, Disk: 1, From: 0, Until: 0, Prob: 0.5, Retries: 3},
		{Kind: Failure, Disk: 2, From: 5, Until: 6},
	}}
	in, err := NewInjector(plan, 3)
	if err != nil {
		t.Fatal(err)
	}

	if e := in.EffectsAt(0, 9); e.Active() {
		t.Errorf("disk 0 round 9 should be healthy: %+v", e)
	}
	if e := in.EffectsAt(0, 12); e.LatencyScale != 2 || e.RateScale != 0.5 {
		t.Errorf("disk 0 round 12 = %+v, want latency 2, rate 0.5", e)
	}
	if e := in.EffectsAt(0, 17); e.LatencyScale != 3 {
		t.Errorf("overlapping latency faults should multiply: %+v", e)
	}
	if e := in.EffectsAt(1, 17); e.LatencyScale != 1.5 {
		t.Errorf("all-disks fault should reach disk 1: %+v", e)
	}
	if e := in.EffectsAt(1, 100); math.Abs(e.ErrorProb-0.75) > 1e-15 || e.Retries != 3 {
		t.Errorf("error probs should compose independently, retries take max: %+v", e)
	}
	if e := in.EffectsAt(2, 5); !e.Failed {
		t.Error("disk 2 round 5 should be failed")
	}
	if e := in.EffectsAt(2, 6); e.Failed {
		t.Error("disk 2 should recover at round 6")
	}
	for e, want := range map[Effects]string{
		in.EffectsAt(0, 0):   "",
		in.EffectsAt(1, 17):  "latency x1.5+errors p=0.75",
		in.EffectsAt(1, 100): "errors p=0.75",
		in.EffectsAt(2, 5):   "fail",
		{LatencyScale: 2, RateScale: 0.5, ErrorProb: 0.2}: "latency x2+rate x0.5+errors p=0.2",
	} {
		if got := e.String(); got != want {
			t.Errorf("%#v names itself %q, want %q", e, got, want)
		}
	}
}

func TestNilInjectorIsHealthy(t *testing.T) {
	var in *Injector
	if e := in.EffectsAt(0, 0); e.Active() {
		t.Errorf("nil injector effects = %+v", e)
	}
	if in.ReadError(0, 0, 0, 0) {
		t.Error("nil injector should never fail reads")
	}
	if len(in.Plan().Faults) != 0 {
		t.Error("nil injector plan should be empty")
	}
}

func TestReadErrorDeterministicAndCalibrated(t *testing.T) {
	plan := Plan{Seed: 7, Faults: []Fault{
		{Kind: ReadError, Disk: 0, From: 0, Until: 0, Prob: 0.3, Retries: 1},
	}}
	a, _ := NewInjector(plan, 1)
	b, _ := NewInjector(plan, 1)
	hits := 0
	const trials = 20000
	for r := 0; r < trials; r++ {
		got := a.ReadError(0, r, 3, 0)
		if got != b.ReadError(0, r, 3, 0) {
			t.Fatalf("two injectors from one plan disagree at round %d", r)
		}
		if got {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("empirical error rate %.4f, want ≈0.30", p)
	}
	// A different seed yields a different draw sequence.
	c, _ := NewInjector(Plan{Seed: 8, Faults: plan.Faults}, 1)
	same := 0
	for r := 0; r < 1000; r++ {
		if a.ReadError(0, r, 3, 0) == c.ReadError(0, r, 3, 0) {
			same++
		}
	}
	if same == 1000 {
		t.Error("seed change did not alter the read-error timeline")
	}
}

func TestExpectedRetries(t *testing.T) {
	e := Effects{ErrorProb: 0.5, Retries: 2}
	if got, want := e.ExpectedRetries(), 0.5+0.25; math.Abs(got-want) > 1e-15 {
		t.Errorf("ExpectedRetries = %v, want %v", got, want)
	}
	if got := (Effects{ErrorProb: 0.5}).ExpectedRetries(); got != 0 {
		t.Errorf("no retries allowed should cost 0 expected revolutions, got %v", got)
	}
}

func TestDegradeGeometry(t *testing.T) {
	g := disk.QuantumViking21()
	e := Effects{LatencyScale: 2, RateScale: 0.5, ErrorProb: 0.5, Retries: 1}
	dg, err := DegradeGeometry(g, e)
	if err != nil {
		t.Fatal(err)
	}
	stretch := 1 + 2*e.ExpectedRetries() // 2.0
	if got, want := dg.RotationTime, g.RotationTime*2*stretch; math.Abs(got-want) > 1e-12*want {
		t.Errorf("RotationTime = %v, want %v", got, want)
	}
	// Effective rates slow by LatencyScale and RateScale only; the retry
	// stretch of ROT is cancelled by the capacity rescale.
	for z := 0; z < g.ZoneCount(); z++ {
		got := dg.TransferRate(z)
		want := g.TransferRate(z) * e.RateScale / e.LatencyScale
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("zone %d rate = %v, want %v", z, got, want)
		}
	}
	if got, want := dg.Seek.Time(100), 2*g.Seek.Time(100); math.Abs(got-want) > 1e-12*want {
		t.Errorf("seek(100) = %v, want %v", got, want)
	}
	if dg.Cylinders() != g.Cylinders() {
		t.Errorf("cylinder count changed: %d vs %d", dg.Cylinders(), g.Cylinders())
	}

	// Identity effects hand back the same geometry.
	if same, err := DegradeGeometry(g, Identity()); err != nil || same != g {
		t.Errorf("identity degrade = (%p, %v), want the original pointer", same, err)
	}
	// Failed disks have no degraded description.
	if _, err := DegradeGeometry(g, Effects{LatencyScale: 1, RateScale: 1, Failed: true}); err == nil {
		t.Error("degrading a failed disk should error")
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "latency:disk=0,from=200,until=400,factor=2; rate:disk=1,from=100,until=300,factor=0.5;" +
		"errors:disk=all,from=50,until=60,prob=0.2,retries=2;fail:disk=3,from=500,until=520"
	plan, err := ParsePlan(spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 99 || len(plan.Faults) != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	want := []Fault{
		{Kind: Latency, Disk: 0, From: 200, Until: 400, Factor: 2},
		{Kind: ZoneRate, Disk: 1, From: 100, Until: 300, Factor: 0.5},
		{Kind: ReadError, Disk: AllDisks, From: 50, Until: 60, Prob: 0.2, Retries: 2},
		{Kind: Failure, Disk: 3, From: 500, Until: 520},
	}
	for i, f := range plan.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
	// String() renders back to parseable syntax.
	again, err := ParsePlan(plan.String(), 99)
	if err != nil {
		t.Fatalf("reparsing %q: %v", plan.String(), err)
	}
	for i := range again.Faults {
		if again.Faults[i] != plan.Faults[i] {
			t.Errorf("round trip changed fault %d: %+v vs %+v", i, again.Faults[i], plan.Faults[i])
		}
	}

	for _, bad := range []string{
		"melt:disk=0",                            // unknown kind
		"latency:disk=0,factor",                  // malformed kv
		"latency:disk=0,factor=2,color=red",      // unknown key
		"latency:disk=x,factor=2",                // bad int
		"latency:disk=0,from=5,until=2,factor=2", // invalid interval
	} {
		if _, err := ParsePlan(bad, 0); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

// TestRetriesCap: a read-error fault may allow MaxRetries retries and no
// more, whichever way its plan comes in, and the effects of overlapping
// faults at the cap stay at it.
func TestRetriesCap(t *testing.T) {
	for _, tc := range []struct {
		retries int
		ok      bool
	}{{MaxRetries, true}, {MaxRetries + 1, false}} {
		spec := fmt.Sprintf("errors:disk=all,prob=1,retries=%d;errors:disk=0,from=5,prob=0.5,retries=%d", tc.retries, tc.retries)
		if _, err := ParsePlan(spec, 1); (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrPlan)) {
			t.Errorf("ParsePlan with retries=%d: %v, want accepted %v", tc.retries, err, tc.ok)
		}
		plan := Plan{Faults: []Fault{
			{Kind: ReadError, Disk: AllDisks, Prob: 1, Retries: tc.retries},
			{Kind: ReadError, Disk: 0, From: 5, Prob: 0.5, Retries: tc.retries},
		}}
		inj, err := NewInjector(plan, 4)
		if (err == nil) != tc.ok {
			t.Errorf("NewInjector with retries=%d: %v, want accepted %v", tc.retries, err, tc.ok)
		}
		if err == nil {
			if got := inj.EffectsAt(0, 7).Retries; got != tc.retries {
				t.Errorf("overlapping faults at retries=%d compose to %d", tc.retries, got)
			}
		}
	}
}
