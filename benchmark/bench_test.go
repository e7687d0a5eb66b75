package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mzqos/internal/engine"
)

// testFactor shrinks every workload to a few hundred rounds.
const testFactor = 0.002

func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel() // nothing asserted here depends on host time
			rep, err := runUntraced(spec, 42, testFactor, 2)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(spec, 42, testFactor, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rep.merge(tr)
			if rep.Failed != 0 {
				t.Errorf("%d failed operations: %v", rep.Failed, rep.Failures)
			}
			if rep.Attempted < 1 || rep.SimDigest == "" || rep.TracedSimDigest == "" {
				t.Errorf("attempted %d, digests %q / %q", rep.Attempted, rep.SimDigest, rep.TracedSimDigest)
			}
			for _, def := range metricDefs {
				mv, ok := rep.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("metric %s missing", def.Name)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("metric %s = %v", def.Name, mv.Value)
				case def.E2E && def.appliesTo(spec.Name) && !def.Exact && !(mv.Value > 0):
					t.Errorf("end-to-end metric %s = %v, want > 0", def.Name, mv.Value)
				case !def.appliesTo(spec.Name) && mv.Value != 0:
					t.Errorf("metric %s = %v on a workload it is not defined on", def.Name, mv.Value)
				}
			}
			if st, err := os.Stat(rep.SpanFile); err != nil || st.Size() == 0 {
				t.Errorf("span file %q: %v", rep.SpanFile, err)
			}
		})
	}
}

func TestDigestRepeatsForASeed(t *testing.T) {
	t.Parallel()
	spec := findWorkload("faults-4x4")
	run := func() *workloadReport {
		rep, err := runUntraced(spec, 42, testFactor, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.SimDigest != b.SimDigest {
		t.Errorf("same seed, digests %s and %s", a.SimDigest, b.SimDigest)
	}
	for _, def := range metricDefs {
		if def.Exact && def.E2E && a.Metrics[def.Name].Value != b.Metrics[def.Name].Value {
			t.Errorf("exact metric %s: %v then %v", def.Name, a.Metrics[def.Name].Value, b.Metrics[def.Name].Value)
		}
	}
}

func TestInputsArePrefixStable(t *testing.T) {
	spec := findWorkload("steady-1x4")
	short, err := generate(spec, 42, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	long, err := generate(spec, 42, 20, 400)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < short.warmup+short.rounds; r++ {
		s, l := short.arrivals(r), long.arrivals(r)
		if len(s) != len(l) {
			t.Fatalf("round %d: %d vs %d arrivals", r, len(s), len(l))
		}
		for i := range s {
			if s[i] != l[i] {
				t.Fatalf("round %d arrival %d: clip %d vs %d", r, i, s[i], l[i])
			}
		}
	}
}

func TestTimedEngineForwardsTightness(t *testing.T) {
	spec := findWorkload("cluster-8x4")
	in, err := generate(spec, 42, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	rec := newSpanRec(0)
	inst, _, err := build(in, buildOpts{layers: allLayers, traced: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.kids) != spec.Shards {
		t.Fatalf("%d decorated shards, want %d", len(rec.kids), spec.Shards)
	}
	res := drive(in, inst, rec, 0)
	if res.Failed != 0 {
		t.Fatalf("drive failed: %v", res.Failures)
	}
	if ct := inst.coord.TightnessReport(); ct.AuditedShards != spec.Shards {
		t.Errorf("%d of %d wrapped shards audited", ct.AuditedShards, spec.Shards)
	}
	// Self time is the span minus the union of its children, so the two
	// add back up to the span and children never stick out of it.
	sh := clusterShape(rec)
	if len(sh.span) != in.rounds {
		t.Fatalf("%d cluster.step spans for %d measured rounds", len(sh.span), in.rounds)
	}
	for i := range sh.span {
		if sh.union[i] <= 0 || sh.union[i] > sh.span[i] || sh.childSum[i] < sh.union[i] {
			t.Errorf("round %d: span %d, union %d, child sum %d", i, sh.span[i], sh.union[i], sh.childSum[i])
		}
	}
}

// TestBoundsCheckCoverage pins which shards the exit check holds to the
// paper's guarantee: every shard that runs without a fault plan, except on
// churn-1x4, the correlated-streams regime the model does not cover.
func TestBoundsCheckCoverage(t *testing.T) {
	all := func(n int) []bool {
		b := make([]bool, n)
		for i := range b {
			b[i] = true
		}
		return b
	}
	want := map[string][]bool{
		"steady-1x4":  all(1),
		"churn-1x4":   {false},
		"cluster-8x4": all(8),
		"faults-4x4":  {false, false, false, true},
		"scrape-1x4":  all(1),
	}
	for _, spec := range workloads {
		in, err := generate(spec, 42, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]bool, spec.Shards)
		for i := range got {
			got[i] = in.boundsChecked(i)
		}
		if !reflect.DeepEqual(got, want[spec.Name]) {
			t.Errorf("%s: bounds checked on shards %v, want %v", spec.Name, got, want[spec.Name])
		}
	}
}

func TestOutsideBounds(t *testing.T) {
	row := func(sweeps, requests int64, pLate, glitch float64) engine.DiskTightness {
		return engine.DiskTightness{
			Sweeps: sweeps, Requests: requests,
			EmpiricalPLate: pLate, BoundPLate: 0.0036,
			EmpiricalGlitchRate: glitch, BoundGlitch: 0.00017,
		}
	}
	for _, tc := range []struct {
		name string
		d    engine.DiskTightness
		want bool
	}{
		{"within both", row(300000, 7800000, 0.0002, 0.00001), false},
		{"tail over its bound", row(300000, 7800000, 0.004, 0.00001), true},
		{"glitch rate over its bound", row(300000, 7800000, 0.0002, 0.0002), true},
		{"one late sweep in a run too short to judge", row(450, 11000, 0.0022, 0.00044), false},
		{"short for the glitch bound, long enough for the tail", row(3000, 50000, 0.005, 0.0005), true},
	} {
		if got := outsideBounds(tc.d); got != tc.want {
			t.Errorf("%s: outsideBounds = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPercentileAndSummary(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.99, 4.96}, {1, 5}} {
		if got := percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// One slow segment in twenty must not move the median.
	segs := make([]float64, 20)
	for i := range segs {
		segs[i] = 100
	}
	segs[7] = 10000
	s := summarize(segs)
	if s.Median != 100 || s.Q1 != 100 || s.Q3 != 100 || s.N != 20 || s.relSpread() != 0 {
		t.Errorf("summary with one burst = %+v", s)
	}
	if got := summarize([]float64{4, 1, 3, 2}); got.Median != 2.5 || got.Q1 != 1.75 || got.Q3 != 3.25 {
		t.Errorf("summarize = %+v", got)
	}
}

// A slow spell must cover the same segment of every lap to show.
func TestFastestLaps(t *testing.T) {
	lap := func(ns ...int64) *runResult {
		res := &runResult{}
		for _, v := range ns {
			res.segs = append(res.segs, segment{rounds: 10, requests: 1000, opens: 5, roundNs: v, openNs: v / 10, p50Ns: float64(v) / 10, p99Ns: float64(v) / 5})
		}
		return res
	}
	segs := fastestLaps([]*runResult{lap(100, 900, 100), lap(800, 100, 100), lap(100, 100, 700)})
	for i, s := range segs {
		if s.roundNs != 100 || s.openNs != 10 || s.p50Ns != 10 || s.p99Ns != 20 || s.requests != 1000 {
			t.Errorf("segment %d = %+v, want the undisturbed lap's figures", i, s)
		}
	}
	if one := lap(100, 900); !reflect.DeepEqual(fastestLaps([]*runResult{one}), one.segs) {
		t.Errorf("one lap is not its own fastest")
	}
}

func TestChunksAndUnion(t *testing.T) {
	means := chunkMeans([]int64{1, 3, 5, 7, 10, 20}, 3)
	if len(means) != 3 || means[0] != 2 || means[1] != 6 || means[2] != 15 {
		t.Errorf("chunkMeans = %v", means)
	}
	if got := chunkMeans(nil, 3); got != nil {
		t.Errorf("chunkMeans(nil) = %v", got)
	}
	if got := chunkP99([]int64{5, 5, 5, 5}, 2); len(got) != 2 || got[0] != 5 {
		t.Errorf("chunkP99 = %v", got)
	}
	if got := unionNs([][2]int64{{10, 20}, {0, 5}, {15, 30}, {18, 19}}); got != 25 {
		t.Errorf("unionNs = %d, want 25", got)
	}
	if got := unionNs(nil); got != 0 {
		t.Errorf("unionNs(nil) = %d", got)
	}
}

func TestSegmentsNeverBelowTen(t *testing.T) {
	for _, tc := range []struct{ rounds, segs, measured int }{
		{300000, 20, 300000}, {407, 20, 400}, {150, 15, 150}, {57, 10, 50}, {10, 10, 10},
	} {
		if got := segmentsFor(tc.rounds); got != tc.segs {
			t.Errorf("segmentsFor(%d) = %d, want %d", tc.rounds, got, tc.segs)
		}
		if got := measuredRounds(tc.rounds); got != tc.measured {
			t.Errorf("measuredRounds(%d) = %d, want %d", tc.rounds, got, tc.measured)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mv := func(v, spread float64) metricValue { return metricValue{Value: v, Spread: spread, N: 20} }
	for _, tc := range []struct {
		metric string
		a, b   metricValue
		want   string
	}{
		{"frag_per_s", mv(100, 0.02), mv(100, 0.02), verdictSame},
		{"frag_per_s", mv(100, 0.02), mv(80, 0.02), verdictSame},         // inside the bound
		{"frag_per_s", mv(100, 0.02), mv(70, 0.02), verdictWorse},        // higher is better
		{"frag_per_s", mv(100, 0.02), mv(140, 0.02), verdictBetter},      //
		{"frag_per_s", mv(100, 0.40), mv(70, 0.02), verdictUnresolved},   // spread wider than the bound
		{"round_p99_us", mv(100, 0.05), mv(140, 0.05), verdictWorse},     // lower is better
		{"round_p99_us", mv(100, 0.05), mv(60, 0.05), verdictBetter},     //
		{"glitch_rate", mv(1e-5, 0), mv(1.1e-5, 0), verdictWorse},        // exact: any change counts
		{"glitch_rate", mv(1e-5, 0), mv(0.9e-5, 0), verdictBetter},       //
		{"server.completed", mv(10, 0), mv(11, 0), verdictBetter},        // exact count, higher is better
		{"history.sample_ns", mv(100, 0.01), mv(105, 0.01), verdictSame}, // per-layer: informational bound
		{"history.sample_ns", mv(100, 0.01), mv(125, 0.01), verdictWorse},
		{"fault.lost", mv(0, 0), mv(3, 0), verdictWorse},                                                      // from zero
		{"fault.effects_ns", metricValue{Value: 100, N: 1}, metricValue{Value: 130, N: 1}, verdictUnresolved}, // single samples
		{"heap_live_mb", metricValue{Value: 100, N: 1}, metricValue{Value: 130, N: 1}, verdictWorse},          // end-to-end: the bound decides
	} {
		def := findMetric(tc.metric)
		if def == nil {
			t.Fatalf("no metric %s", tc.metric)
		}
		if got, _ := judge(def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.metric, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json, which the driver
// reads, equal to the tables this package measures by.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s / %s", i, bm.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var e2e, layer []metricDef
	for _, def := range metricDefs {
		if def.traced() {
			layer = append(layer, def)
		} else {
			e2e = append(e2e, def)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, def.Name, def.Unit, def.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.Bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded %v)", kind, def.Name, g.Bound, def.Bound, bounded)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, e2e, true)
	check("per_layer", bm.PerLayer, layer, false)
	// The driver's runs are at rounds factor 2: five laps of a fifth of
	// twice the nominal rounds each.
	if bm.RunSeconds != 2*nominalSeconds {
		t.Errorf("run_seconds %d, want twice the %d the round counts were sized for", bm.RunSeconds, nominalSeconds)
	}
}
