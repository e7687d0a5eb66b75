package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mzqos/internal/disk"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// chunkMeans splits time-ordered samples into n equal-count chunks and
// returns each chunk's mean: the per-segment view of a span kind.
func chunkMeans(vals []int64, n int) []float64 {
	return chunkApply(vals, n, func(c []int64) float64 {
		var sum int64
		for _, v := range c {
			sum += v
		}
		return float64(sum) / float64(len(c))
	})
}

// chunkP99 is chunkMeans for the 99th percentile.
func chunkP99(vals []int64, n int) []float64 {
	return chunkApply(vals, n, func(c []int64) float64 { return percentile(sortedCopyNs(c), 0.99) })
}

func chunkApply(vals []int64, n int, f func([]int64) float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	if n > len(vals) {
		n = len(vals)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f(vals[i*len(vals)/n : (i+1)*len(vals)/n])
	}
	return out
}

// meanAcross averages per-segment series elementwise (one series per shard).
func meanAcross(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	out := make([]float64, len(series[0]))
	for _, s := range series {
		for i := range out {
			out[i] += s[i] / float64(len(series))
		}
	}
	return out
}

// durations returns the durations of one recorder's spans of a kind, in
// time order.
func durations(rec *spanRec, kind uint8) []int64 {
	var out []int64
	for _, s := range rec.buf {
		if s.kind == kind {
			out = append(out, s.dur)
		}
	}
	return out
}

// perShard applies a per-segment reduction to each shard's spans of a kind
// and averages the shards segment by segment.
func perShard(root *spanRec, kind uint8, segs int, reduce func([]int64, int) []float64) summary {
	var series [][]float64
	for _, kid := range root.kids {
		if s := reduce(durations(kid, kind), segs); len(s) == segs {
			series = append(series, s)
		}
	}
	return summarize(meanAcross(series))
}

// probe times f n times and summarizes the timings in milliseconds. The
// stores are quiescent: this is what one read costs, not what it costs
// under load (the scrape workload measures that).
func probe(n int, f func()) summary {
	ms := make([]float64, n)
	for i := range ms {
		t0 := time.Now()
		f()
		ms[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return summarize(ms)
}

const probeRepeats = 9

// solveMs times one cold admission solve: model.New plus the N_max search.
func solveMs(g *disk.Geometry) (summary, error) {
	var err error
	v := probe(probeRepeats, func() {
		var m *model.Model
		if m, err = model.New(model.Config{Disk: g, Sizes: workload.PaperSizes(), RoundLength: roundLength}); err == nil {
			_, err = m.ExplainNMax(model.Guarantee{Threshold: guaranteeDelta})
		}
	})
	return v, err
}

// degradeSolveMs times the run-time re-solve the degrade controller makes
// for each distinct fault effect in the workload's plans, and summarizes
// across the effects; 0 with no plan.
func degradeSolveMs(in *inputs) (summary, error) {
	seen := map[fault.Effects]bool{}
	var medians []float64
	for _, p := range in.plans {
		if p == nil {
			continue
		}
		inj, err := fault.NewInjector(*p, in.spec.Disks)
		if err != nil {
			return summary{}, err
		}
		for _, f := range p.Faults {
			for d := 0; d < in.spec.Disks; d++ {
				eff := inj.EffectsAt(d, f.From)
				if !eff.Active() || eff.Failed || seen[eff] {
					continue
				}
				seen[eff] = true
				g, err := fault.DegradeGeometry(disk.QuantumViking21(), eff)
				if err != nil {
					return summary{}, err
				}
				v, err := solveMs(g)
				if err != nil {
					return summary{}, err
				}
				medians = append(medians, v.Median)
			}
		}
	}
	if len(medians) == 0 {
		return exact(0), nil
	}
	return summarize(medians), nil
}

// readProbes makes the library calls behind the HTTP surface against the
// traced run's stores, one layer at a time, and validates each payload.
func readProbes(in *inputs, inst *instance, put func(name string, s summary), fail func(string, ...any)) {
	metrics := inst.reg.MetricsHandler()
	query := inst.hist.QueryHandler()
	dash := inst.hist.DashboardHandler(history.DashboardConfig{Title: "mzqos", RoundLength: roundLength})

	var body *bytes.Buffer
	var code int
	put("telemetry.metrics_ms", probe(probeRepeats, func() {
		rr := serve(metrics, "/metrics")
		body, code = rr.Body, rr.Code
	}))
	if code != http.StatusOK || !bytes.Contains(body.Bytes(), []byte("mzqos_server_rounds_total")) {
		fail("probe /metrics: status %d, %d bytes", code, body.Len())
	}
	put("telemetry.metrics_bytes", exact(float64(body.Len())))
	put("telemetry.series", exact(float64(inst.reg.NumSeries())))
	put("history.series", exact(float64(inst.hist.NumSeries())))

	put("history.query_ms", probe(probeRepeats, func() {
		rr := serve(query, queryURL)
		body, code = rr.Body, rr.Code
	}))
	var qr history.Result
	if err := json.Unmarshal(body.Bytes(), &qr); code != http.StatusOK || err != nil || len(qr.Series) != in.spec.Shards*in.spec.Disks {
		fail("probe /query: status %d, %d series, %v", code, len(qr.Series), err)
	}
	put("history.dashboard_ms", probe(probeRepeats, func() {
		rr := serve(dash, "/dashboard")
		body, code = rr.Body, rr.Code
	}))
	if code != http.StatusOK || !bytes.Contains(body.Bytes(), []byte("<svg")) {
		fail("probe /dashboard: status %d, %d bytes", code, body.Len())
	}
	var dump history.Result
	put("history.dump_ms", probe(probeRepeats, func() { dump = inst.hist.Dump(256) }))
	if len(dump.Series) != inst.hist.NumSeries() {
		fail("probe history dump: %d of %d series", len(dump.Series), inst.hist.NumSeries())
	}

	var evs []journal.Event
	put("journal.events_ms", probe(probeRepeats, func() { evs = inst.jnl.Events(journal.MatchAll()) }))
	if st := inst.jnl.Stats(); len(evs) != st.Retained {
		fail("probe journal: %d events read, %d retained", len(evs), st.Retained)
	}
	var lr journal.Report
	put("journal.ledger_report_ms", probe(probeRepeats, func() { lr = inst.ledger.Report() }))
	if lr.ActiveStreams != len(lr.Active) {
		fail("probe ledger: %d active streams, %d records", lr.ActiveStreams, len(lr.Active))
	}

	// FaultEffectsAt over a spread of rounds, faulty windows included.
	const effectCalls = 2000
	stride := (in.warmup + in.rounds) / effectCalls
	t0 := time.Now()
	n := 0
	for _, srv := range inst.servers {
		for i := 0; i < effectCalls; i++ {
			if len(srv.FaultEffectsAt(i*stride)) != in.spec.Disks {
				fail("probe FaultEffectsAt: wrong disk count")
			}
			n++
		}
	}
	put("fault.effects_ns", exact(float64(time.Since(t0))/float64(n)))
}

// ladderRungs are the cumulative observer sets of the Step cost ladder.
var ladderRungs = []struct {
	metric string
	layers layers
}{
	{"server.step_bare_ns", layers{}},
	{"trace.step_delta_ns", layers{trace: true}},
	{"slo.step_delta_ns", layers{trace: true, slo: true}},
	{"journal.step_delta_ns", layers{trace: true, slo: true, journal: true}},
	{"history.step_delta_ns", allLayers},
}

// ladderResult is the Step cost ladder: the mean Step span of each rung.
type ladderResult struct {
	stepNs []summary // per rung, bare first
	digest uint64    // shared by every rung
	rounds int
	tally
}

// runLadder drives the steady inputs through five servers that differ only
// in which observers server.Config switches on, with a span around Step, and
// checks that no observer changed the simulation. The rungs take turns one
// segment at a time, so a slow spell on the host lands on all five and
// cancels out of the deltas between them.
func runLadder(spec *workloadSpec, seed uint64, factor float64) (*ladderResult, error) {
	in, err := generate(spec, seed, scaleWarmup(spec.Warmup, factor), scaleRounds(ladderRounds, factor))
	if err != nil {
		return nil, err
	}
	lad := &ladderResult{rounds: in.rounds}
	runners := make([]*runner, len(ladderRungs))
	for i, rung := range ladderRungs {
		inst, _, err := build(in, buildOpts{layers: rung.layers})
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", rung.metric, err)
		}
		runners[i] = newRunner(in, inst, newSpanRec(0), 0)
		runners[i].warmUp()
	}
	for s := 0; s < in.segments; s++ {
		for _, r := range runners {
			r.segment()
		}
	}
	for i, r := range runners {
		res := r.finish()
		lad.stepNs = append(lad.stepNs, summarize(chunkMeans(durations(r.rec, spanServerStep), in.segments)))
		lad.absorb(res.tally)
		if i == 0 {
			lad.digest = res.digest
		} else if res.digest != lad.digest {
			lad.fail("ladder rung %s: digest %016x differs from bare %016x", ladderRungs[i].metric, res.digest, lad.digest)
		}
	}
	return lad, nil
}
