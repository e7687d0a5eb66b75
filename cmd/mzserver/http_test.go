package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// oneShardStack builds a server from cfg as shard 0 of a one-shard
// coordinator, as mzserver wires every shard: its series carry shard="0"
// in cfg's registry (a new one when nil), the coordinator shares cfg's
// journal and ledger (a new one when nil) and samples hist.
func oneShardStack(t *testing.T, cfg server.Config, hist *history.Store) (*cluster.Coordinator, *server.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Ledger == nil {
		cfg.Ledger = journal.NewLedger(journal.LedgerConfig{})
	}
	cfg.InstanceLabels = []telemetry.Label{telemetry.L("shard", "0")}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{
		Engines:  []engine.Engine{srv},
		Registry: cfg.Registry,
		Journal:  cfg.Journal,
		Ledger:   cfg.Ledger,
		History:  hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord, srv
}

// shardMux serves a one-shard stack.
func shardMux(coord *cluster.Coordinator, srv *server.Server, hist *history.Store) *http.ServeMux {
	return buildMux(coord, []*server.Server{srv}, hist, false)
}

// paperConfig is a 2-disk Viking server under the paper's workload.
func paperConfig(seed uint64) server.Config {
	return server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        seed,
	}
}

// testStack is a one-shard stack with 8 streams of one object open for
// 20 rounds, and no journal.
func testStack(t *testing.T) (*cluster.Coordinator, *server.Server) {
	t.Helper()
	coord, srv := oneShardStack(t, paperConfig(42), nil)
	if err := srv.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := coord.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 20; r++ {
		coord.Step()
	}
	return coord, srv
}

// testMux serves testStack.
func testMux(t *testing.T) *http.ServeMux {
	t.Helper()
	coord, srv := testStack(t)
	return shardMux(coord, srv, nil)
}

func TestMetricsEndpoint(t *testing.T) {
	mux := testMux(t)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q is not Prometheus text exposition", ct)
	}
	body := rec.Body.String()
	// The documented metric surface: server series, per-disk series, and
	// the adopted model solver series must all appear.
	for _, name := range []string{
		`mzqos_server_rounds_total{shard="0"} 20`,
		"mzqos_server_fragments_total",
		"mzqos_server_glitches_total",
		`mzqos_server_streams_admitted_total{shard="0"} 8`,
		`mzqos_server_streams_active{shard="0"} 8`,
		`mzqos_server_nmax{shard="0"} 26`,
		"mzqos_server_bound_late",
		"mzqos_server_bound_glitch",
		`mzqos_server_round_time_seconds_bucket{shard="0",disk="0",le="1"}`,
		`mzqos_server_round_time_seconds_bucket{shard="0",disk="1",le="+Inf"}`,
		`mzqos_server_peak_round_load{shard="0",disk="0"}`,
		`mzqos_server_phase_seconds_total{shard="0",disk="0",phase="seek"}`,
		`mzqos_server_phase_seconds_total{shard="0",disk="1",phase="transfer"}`,
		"mzqos_model_chain_hits_total",
		`mzqos_model_chernoff_solves_total{mode="cold"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

func TestReportAndSweepsEndpoints(t *testing.T) {
	mux := testMux(t)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/report", nil))
	if rec.Code != 200 {
		t.Fatalf("/report status %d", rec.Code)
	}
	var ct cluster.ClusterTightnessReport
	if err := json.Unmarshal(rec.Body.Bytes(), &ct); err != nil || len(ct.Shards) != 1 {
		t.Fatalf("/report is not a one-shard tightness report: %v", err)
	}
	if rep := ct.Shards[0].Report; len(rep.Disks) != 2 || rep.PerDiskLimit != 26 {
		t.Errorf("report: %d disks, limit %d", len(rep.Disks), rep.PerDiskLimit)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/0/sweeps", nil))
	if rec.Code != 200 {
		t.Fatalf("/shard/0/sweeps status %d", rec.Code)
	}
	var sweeps []struct {
		Requests int     `json:"requests"`
		Total    float64 `json:"total_s"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sweeps); err != nil {
		t.Fatalf("/shard/0/sweeps is not an event list: %v", err)
	}
	if len(sweeps) == 0 {
		t.Fatal("/shard/0/sweeps is empty after 20 rounds")
	}
	for _, ev := range sweeps {
		if ev.Requests <= 0 || ev.Total <= 0 {
			t.Fatalf("degenerate sweep event: %+v", ev)
		}
	}
}

func TestFaultsEndpoint(t *testing.T) {
	cfg := paperConfig(42)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Latency, Disk: 1, From: 0, Factor: 2},
	}}
	coord, srv := oneShardStack(t, cfg, nil)
	for r := 0; r < 5; r++ {
		coord.Step()
	}
	mux := shardMux(coord, srv, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/0/faults", nil))
	if rec.Code != 200 {
		t.Fatalf("/shard/0/faults status %d", rec.Code)
	}
	var status faultStatusReport
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("/shard/0/faults is not JSON: %v", err)
	}
	if len(status.Plan.Faults) != 1 || status.Plan.Faults[0].Factor != 2 {
		t.Errorf("plan = %+v", status.Plan)
	}
	if status.Round != 4 || status.Degraded || status.Limit != 26 {
		t.Errorf("status = round %d degraded %v limit %d, want 4/false/26", status.Round, status.Degraded, status.Limit)
	}
	if len(status.Effects) != 2 {
		t.Fatalf("effects for %d disks", len(status.Effects))
	}
	if status.Effects[0].Active() || !status.Effects[1].Active() || status.Effects[1].LatencyScale != 2 {
		t.Errorf("effects = %+v", status.Effects)
	}
}

func TestPprofGating(t *testing.T) {
	bare := testMux(t)
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == 200 {
		t.Errorf("/debug/pprof served without the flag (status %d)", rec.Code)
	}

	coord, srv := testStack(t)
	profiled := buildMux(coord, []*server.Server{srv}, nil, true)
	rec = httptest.NewRecorder()
	profiled.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof status %d with the flag", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	mux := testMux(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: status %d body %q", rec.Code, rec.Body.String())
	}
}

func TestAdmissionEndpoint(t *testing.T) {
	cfg := paperConfig(42)
	cfg.Journal = journal.New(journal.Config{})
	coord, srv := oneShardStack(t, cfg, nil)
	if err := srv.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	// Provoke one rejection so the endpoints show a full story.
	for srv.Active() < srv.Capacity() {
		if _, _, err := coord.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := coord.Open("v"); err == nil {
		t.Fatal("open past capacity succeeded")
	}

	mux := shardMux(coord, srv, nil)
	var st server.AdmissionStatus
	getJSON(t, mux, "/shard/0/admission", &st)
	if st.NMax != 26 || st.Capacity != 52 || len(st.Explanations) != 2 {
		t.Errorf("status nmax=%d capacity=%d explanations=%d", st.NMax, st.Capacity, len(st.Explanations))
	}
	for d, exp := range st.Explanations {
		if exp.Bound != "b_late" || exp.BindingK != 27 || !(exp.Theta > 0) || !(exp.Slack > 0) {
			t.Errorf("disk %d explanation incomplete: %+v", d, exp)
		}
	}
	// The coordinator turned the stream away before its shard saw it: the
	// shard counts no rejection of its own and the journal holds the
	// coordinator's.
	if n := shardRejected(t, srv, 0); n != 0 {
		t.Errorf("shard rejected %d opens, want none", n)
	}
	var rejects timelineReport
	getJSON(t, mux, "/timeline?kind=reject", &rejects)
	if len(rejects.Events) != 1 || rejects.Events[0].Object != "v" || rejects.Events[0].Shard != 0 {
		t.Errorf("reject events = %+v, want one for v on shard 0", rejects.Events)
	}
	var adm admissionReport
	getJSON(t, mux, "/admission", &adm)
	if len(adm.Admissions) != 52 || adm.Route != cluster.RouteRoundRobin {
		t.Errorf("/admission: %d admissions by %q, want 52 by round-robin", len(adm.Admissions), adm.Route)
	}
}

func TestTraceEndpoint(t *testing.T) {
	mux := testMux(t)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/0/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/shard/0/trace status %d", rec.Code)
	}
	var rep traceReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/shard/0/trace is not a trace report: %v", err)
	}
	if !rep.Enabled || rep.Stats.Capacity == 0 {
		t.Errorf("report stats = %+v", rep.Stats)
	}
	// 20 rounds × 2 disks, minus sweeps where startup delay left a disk
	// idle; the ring must hold exactly what the recorder committed.
	if int64(len(rep.Spans)) != rep.Stats.Recorded || len(rep.Spans) < 20 {
		t.Fatalf("%d spans, %d recorded", len(rep.Spans), rep.Stats.Recorded)
	}
	for i, sp := range rep.Spans {
		if sp.Seq != uint64(i) {
			t.Fatalf("span %d has seq %d (gap)", i, sp.Seq)
		}
		if len(sp.Requests) == 0 || sp.Busy <= 0 {
			t.Errorf("span %d degenerate: %d requests, busy %v", i, len(sp.Requests), sp.Busy)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/0/trace?format=chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("/shard/0/trace?format=chrome status %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	sweeps := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "sweep" {
			sweeps++
		}
	}
	if int64(sweeps) != rep.Stats.Recorded {
		t.Errorf("chrome export has %d sweep events, want %d", sweeps, rep.Stats.Recorded)
	}

	// No trigger fired in a healthy run: the frozen source is empty but
	// still well-formed JSON.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/0/trace?source=frozen", nil))
	if rec.Code != 200 {
		t.Fatalf("/shard/0/trace?source=frozen status %d", rec.Code)
	}
	var frozenRep traceReport
	if err := json.Unmarshal(rec.Body.Bytes(), &frozenRep); err != nil {
		t.Fatalf("frozen report is not JSON: %v", err)
	}
	if frozenRep.Frozen != nil || len(frozenRep.Spans) != 0 {
		t.Errorf("healthy run has frozen=%v spans=%d", frozenRep.Frozen, len(frozenRep.Spans))
	}
}

func TestSLOEndpoint(t *testing.T) {
	mux := testMux(t)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/0/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("/shard/0/slo status %d", rec.Code)
	}
	var rep struct {
		Enabled    bool `json:"enabled"`
		Round      int  `json:"round"`
		FastWindow int  `json:"fast_window_rounds"`
		SlowWindow int  `json:"slow_window_rounds"`
		Targets    []struct {
			Target  string  `json:"target"`
			Budget  float64 `json:"budget"`
			State   string  `json:"state"`
			Windows []struct {
				Window     string  `json:"window"`
				Violations int64   `json:"violations"`
				Population int64   `json:"population"`
				Critical   int64   `json:"critical"`
				Measured   float64 `json:"measured"`
			} `json:"windows"`
		} `json:"targets"`
		Incidents []journal.Event `json:"incidents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/shard/0/slo is not a guarantee-audit report: %v", err)
	}
	if !rep.Enabled || rep.Round != 20 {
		t.Errorf("enabled=%v round=%d, want true/20", rep.Enabled, rep.Round)
	}
	if rep.FastWindow <= 0 || rep.SlowWindow < rep.FastWindow {
		t.Errorf("windows = %d/%d", rep.FastWindow, rep.SlowWindow)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("targets = %d, want 2 (late, glitch)", len(rep.Targets))
	}
	for _, tgt := range rep.Targets {
		if tgt.Target != "late" && tgt.Target != "glitch" {
			t.Errorf("unknown target %q", tgt.Target)
		}
		if !(tgt.Budget > 0) || tgt.State == "" || len(tgt.Windows) != 2 {
			t.Errorf("target %s incomplete: %+v", tgt.Target, tgt)
		}
		for _, w := range tgt.Windows {
			if w.Population <= 0 || w.Critical < 1 || w.Violations >= w.Critical {
				t.Errorf("target %s %s window: %d of %d against critical %d on a healthy run",
					tgt.Target, w.Window, w.Violations, w.Population, w.Critical)
			}
		}
	}
	if len(rep.Incidents) != 0 {
		t.Errorf("healthy run has incidents: %+v", rep.Incidents)
	}

	// The metric surface carries the matching series.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		`mzqos_slo_budget{shard="0",target="late"}`,
		`mzqos_slo_budget{shard="0",target="glitch"}`,
		`mzqos_slo_alert_state{shard="0",target="late"} 0`,
		`mzqos_slo_alerts_fired_total{shard="0",target="late"} 0`,
		`mzqos_slo_measured{shard="0",target="late",window="fast"}`,
		`mzqos_slo_measured{shard="0",target="glitch",window="slow"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// incidentCluster is a two-shard stack on one journal, both shards
// loaded near capacity, each under a latency fault of its own: shard 0's
// from round 10, shard 1's from round 45, both 30 rounds long. With
// 8/16-round SLO windows each shard's late alert fires and resolves
// within 150 rounds, at different rounds on the two shards.
func incidentCluster(t *testing.T) (*cluster.Coordinator, []*server.Server, *journal.Journal) {
	t.Helper()
	reg := telemetry.NewRegistry()
	jnl := journal.New(journal.Config{Registry: reg})
	srvs := make([]*server.Server, 2)
	engines := make([]engine.Engine, 2)
	for i := range engines {
		cfg := paperConfig(uint64(i) + 7)
		cfg.Faults = &fault.Plan{Seed: 3, Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: fault.AllDisks, From: 10 + 35*i, Until: 40 + 35*i, Factor: 3},
		}}
		cfg.SLO = slo.Config{FastWindow: 8, SlowWindow: 16, ResolvedFor: 8}
		cfg.Registry, cfg.Journal, cfg.Shard = reg, jnl, i
		cfg.InstanceLabels = []telemetry.Label{telemetry.L("shard", strconv.Itoa(i))}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], engines[i] = srv, srv
	}
	coord, err := cluster.New(cluster.Config{Engines: engines, Registry: reg, Journal: jnl, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]float64, 200)
	for i := range sizes {
		sizes[i] = 200e3
	}
	for i := 0; i < 96; i++ {
		name := fmt.Sprintf("clip-%d", i)
		if err := coord.AddObject(name, sizes); err != nil {
			t.Fatal(err)
		}
		if _, _, err := coord.Open(name); err != nil {
			t.Fatal(err)
		}
	}
	for range 150 {
		coord.Step()
	}
	return coord, srvs, jnl
}

// TestShardSLOIncidentsMatchTimeline: a shard's /shard/{i}/slo serves its
// incidents as the journal records them: they are that shard's slo_*
// events on /timeline, every field equal, in the same order. Both shards
// fire and resolve, so a view that mixes in its sibling's incidents
// differs from its own timeline.
func TestShardSLOIncidentsMatchTimeline(t *testing.T) {
	coord, srvs, jnl := incidentCluster(t)
	if st := jnl.Stats(); st.Dropped != 0 {
		t.Fatalf("journal dropped %d events: the comparison needs every incident retained", st.Dropped)
	}
	mux := buildMux(coord, srvs, nil, false)
	for i := range srvs {
		var view sloReport
		getJSON(t, mux, fmt.Sprintf("/shard/%d/slo", i), &view)
		var tl timelineReport
		getJSON(t, mux, fmt.Sprintf("/timeline?shard=%d&kind=slo_pending,slo_firing,slo_resolved", i), &tl)

		arc := map[journal.Kind]int{}
		for _, e := range tl.Events {
			arc[e.Kind]++
		}
		if arc[journal.KindSLOFiring] == 0 || arc[journal.KindSLOResolved] == 0 {
			t.Fatalf("shard %d: incidents %v, want a firing and a resolution", i, arc)
		}
		if !reflect.DeepEqual(view.Incidents, tl.Events) {
			t.Errorf("shard %d: /slo incidents\n%+v\nwant its timeline's\n%+v", i, view.Incidents, tl.Events)
		}
	}
}

// testCluster assembles a small two-shard stack the way mzserver does:
// server shards on a shared registry behind a coordinator.
func testCluster(t *testing.T) (*cluster.Coordinator, []*server.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	srvs := make([]*server.Server, 2)
	engines := make([]engine.Engine, 2)
	for i := range engines {
		srv, err := server.New(server.Config{
			Disk:        disk.QuantumViking21(),
			NumDisks:    2,
			RoundLength: 1,
			Sizes:       workload.PaperSizes(),
			Guarantee:   model.Guarantee{Threshold: 0.01},
			Seed:        uint64(i) + 7,
			Registry:    reg,
			InstanceLabels: []telemetry.Label{
				telemetry.L("shard", fmt.Sprintf("%d", i)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], engines[i] = srv, srv
	}
	coord, err := cluster.New(cluster.Config{Engines: engines, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for range 10 {
		coord.Step()
	}
	return coord, srvs
}

func TestClusterSLOAndReportEndpoints(t *testing.T) {
	coord, srvs := testCluster(t)
	mux := buildMux(coord, srvs, nil, false)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("/slo status %d", rec.Code)
	}
	var st cluster.ClusterSLO
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/slo is not a cluster SLO report: %v", err)
	}
	if st.AuditedShards != 2 || len(st.Shards) != 2 || len(st.Targets) != 2 {
		t.Errorf("audited=%d shards=%d targets=%d, want 2/2/2",
			st.AuditedShards, len(st.Shards), len(st.Targets))
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/report", nil))
	if rec.Code != 200 {
		t.Fatalf("/report status %d", rec.Code)
	}
	var rep cluster.ClusterTightnessReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/report is not a cluster tightness report: %v", err)
	}
	if rep.AuditedShards != 2 || !rep.WithinBounds {
		t.Errorf("report audited=%d within=%v, want 2/true", rep.AuditedShards, rep.WithinBounds)
	}

	// Cluster metric surface: the SLO roll-up series.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		`mzqos_cluster_slo_budget{target="late"}`,
		`mzqos_cluster_slo_measured{target="late",window="fast"}`,
		"mzqos_cluster_slo_firing_shards 0",
		`mzqos_slo_budget{shard="0",target="late"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// failedStack builds a one-shard stack whose only disks fail at round 0
// with degradation enabled, steps it until admission fail-closes, and
// serves it — the /healthz unavailable fixture.
func failedStack(t *testing.T) *http.ServeMux {
	t.Helper()
	cfg := paperConfig(1)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: fault.AllDisks, From: 0},
	}}
	cfg.Degrade = server.DegradeConfig{Enabled: true, After: 1}
	coord, srv := oneShardStack(t, cfg, nil)
	for r := 0; r < 6; r++ {
		coord.Step()
	}
	if !srv.Health().Failed {
		t.Fatal("fixture server did not fail-close")
	}
	return shardMux(coord, srv, nil)
}

func TestHealthzFailureClosed(t *testing.T) {
	mux := failedStack(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz status %d, want 503 while failure-closed", rec.Code)
	}
	var body struct {
		Status string `json:"status"`
		Cause  string `json:"cause"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/healthz body is not JSON: %v", err)
	}
	if body.Status != "unavailable" || body.Cause == "" {
		t.Errorf("/healthz body = %+v, want unavailable with a cause", body)
	}
}

func TestClusterHealthz(t *testing.T) {
	// Healthy cluster: 200 with status ok.
	coord, srvs := testCluster(t)
	mux := buildMux(coord, srvs, nil, false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthy cluster /healthz: status %d body %q", rec.Code, rec.Body.String())
	}

	// Every shard failure-closed: 503 naming the cause.
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: fault.AllDisks, From: 0},
	}}
	reg2 := telemetry.NewRegistry()
	srvs = make([]*server.Server, 2)
	engines := make([]engine.Engine, 2)
	for i := range engines {
		srv, err := server.New(server.Config{
			Disk:        disk.QuantumViking21(),
			NumDisks:    2,
			RoundLength: 1,
			Sizes:       workload.PaperSizes(),
			Guarantee:   model.Guarantee{Threshold: 0.01},
			Seed:        uint64(i) + 3,
			Faults:      plan,
			Degrade:     server.DegradeConfig{Enabled: true, After: 1},
			Registry:    reg2,
			InstanceLabels: []telemetry.Label{
				telemetry.L("shard", fmt.Sprintf("%d", i)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], engines[i] = srv, srv
	}
	failed, err := cluster.New(cluster.Config{Engines: engines, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	for range 6 { // past the degrade threshold; the view refreshes every round
		failed.Step()
	}
	mux = buildMux(failed, srvs, nil, false)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("failed cluster /healthz: status %d, want 503", rec.Code)
	}
	var body struct {
		Status string `json:"status"`
		Cause  string `json:"cause"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/healthz body is not JSON: %v", err)
	}
	if body.Status != "unavailable" || !strings.Contains(body.Cause, "shard") {
		t.Errorf("/healthz body = %+v, want unavailable naming the shards", body)
	}
}

func TestHistoryEndpoints(t *testing.T) {
	cfg := paperConfig(42)
	cfg.Registry = telemetry.NewRegistry()
	hist := history.New(history.Config{Registry: cfg.Registry, Rounds: 128})
	coord, srv := oneShardStack(t, cfg, hist)
	if err := srv.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := coord.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 20; r++ {
		coord.Step()
	}
	mux := shardMux(coord, srv, hist)

	// /query serves the per-round trajectory the Step loop recorded.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/query?series=mzqos_server_streams_active&agg=last", nil))
	if rec.Code != 200 {
		t.Fatalf("/query status %d: %s", rec.Code, rec.Body.String())
	}
	var res struct {
		Series []struct {
			Points []struct {
				Round int64   `json:"round"`
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("/query is not JSON: %v", err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) < 2 {
		t.Fatalf("/query returned %+v, want one series with >= 2 points", res)
	}
	if last := res.Series[0].Points[len(res.Series[0].Points)-1]; last.Value != 6 {
		t.Errorf("latest active = %v, want 6", last.Value)
	}

	// Unknown series answers 400.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/query?series=mzqos_nope", nil))
	if rec.Code != 400 {
		t.Errorf("/query unknown series status %d, want 400", rec.Code)
	}

	// /dashboard renders the measured-tail-vs-bound page inline.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/dashboard", nil))
	if rec.Code != 200 {
		t.Fatalf("/dashboard status %d", rec.Code)
	}
	page := rec.Body.String()
	for _, want := range []string{"<svg", "Measured tail vs analytic bound", "Admission"} {
		if !strings.Contains(page, want) {
			t.Errorf("/dashboard missing %q", want)
		}
	}

	// /debug/bundle embeds the history dump.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle", nil))
	var bundle struct {
		History *struct {
			Series []json.RawMessage `json:"series"`
		} `json:"history"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &bundle); err != nil {
		t.Fatalf("/debug/bundle is not JSON: %v", err)
	}
	if bundle.History == nil || len(bundle.History.Series) == 0 {
		t.Error("/debug/bundle lacks the history dump")
	}

	// Without a store the endpoints are simply absent (404 from the mux).
	bare := testMux(t)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != 404 {
		t.Errorf("/query without history: status %d, want 404", rec.Code)
	}
}

// TestShardRoutes serves every shard's own views on goldenCluster's
// 3-shard stack: each /shard/{i}/ view answers the payload of shard i,
// /shard/2/trace holds shard 2's flight recorder, and a path naming no
// shard, or no view, answers 404.
func TestShardRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord, srvs, _ := goldenCluster(t, reg, nil, nil)
	mux := buildMux(coord, srvs, nil, false)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	for i, srv := range srvs {
		views := map[string]any{"slo": shardSLO(srv, coord.Journal(), i)}
		for view, payload := range shardViews {
			views[view] = payload(srv, nil)
		}
		for view, payload := range views {
			path := fmt.Sprintf("/shard/%d/%s", i, view)
			want := httptest.NewRecorder()
			telemetry.WriteJSON(want, payload)
			if rec := get(path); rec.Code != 200 || rec.Body.String() != want.Body.String() {
				t.Errorf("GET %s: status %d, body is shard %d's payload: %v", path, rec.Code, i, rec.Body.String() == want.Body.String())
			}
		}
	}

	var rep traceReport
	getJSON(t, mux, "/shard/2/trace", &rep)
	if !rep.Enabled || len(rep.Spans) == 0 {
		t.Errorf("/shard/2/trace: enabled %v, %d spans; want shard 2's recorder on and holding spans", rep.Enabled, len(rep.Spans))
	}
	if live := srvs[2].Trace().Live(); !reflect.DeepEqual(rep.Spans, live) {
		t.Errorf("/shard/2/trace serves %d spans that are not shard 2's %d", len(rep.Spans), len(live))
	}

	for _, path := range []string{"/shard/3/trace", "/shard/-1/admission", "/shard/x/slo", "/shard/0/bogus"} {
		if rec := get(path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rec.Code)
		}
	}
}

// shardRejected reads shard i's mzqos_server_streams_rejected_total: the
// opens its own admission control turned away.
func shardRejected(t *testing.T, srv *server.Server, i int) int64 {
	t.Helper()
	shard := []telemetry.Label{telemetry.L("shard", strconv.Itoa(i))}
	for _, c := range srv.Telemetry().Registry().Snapshot().Counters {
		if c.Name == "mzqos_server_streams_rejected_total" && slices.Equal(c.Labels, shard) {
			return c.Value
		}
	}
	t.Fatalf("shard %d exports no mzqos_server_streams_rejected_total", i)
	return 0
}
