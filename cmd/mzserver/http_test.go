package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

func testServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := srv.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 20; r++ {
		srv.Step()
	}
	return srv
}

func TestMetricsEndpoint(t *testing.T) {
	mux := newTelemetryMux(testServer(t), nil, false)

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
		"mzqos_server_rounds_total 20",
		"mzqos_server_fragments_total",
		"mzqos_server_glitches_total",
		"mzqos_server_streams_admitted_total 8",
		"mzqos_server_streams_active 8",
		"mzqos_server_nmax 26",
		"mzqos_server_bound_late",
		"mzqos_server_bound_glitch",
		`mzqos_server_round_time_seconds_bucket{disk="0",le="1"}`,
		`mzqos_server_round_time_seconds_bucket{disk="1",le="+Inf"}`,
		`mzqos_server_peak_round_load{disk="0"}`,
		`mzqos_server_phase_seconds_total{disk="0",phase="seek"}`,
		`mzqos_server_phase_seconds_total{disk="1",phase="transfer"}`,
		"mzqos_model_chain_hits_total",
		`mzqos_model_chernoff_solves_total{mode="cold"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

func TestReportAndSweepsEndpoints(t *testing.T) {
	mux := newTelemetryMux(testServer(t), nil, false)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/report", nil))
	if rec.Code != 200 {
		t.Fatalf("/report status %d", rec.Code)
	}
	var rep server.TightnessReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/report is not a tightness report: %v", err)
	}
	if len(rep.Disks) != 2 || rep.PerDiskLimit != 26 {
		t.Errorf("report: %d disks, limit %d", len(rep.Disks), rep.PerDiskLimit)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/sweeps", nil))
	if rec.Code != 200 {
		t.Fatalf("/sweeps status %d", rec.Code)
	}
	var sweeps []struct {
		Requests int     `json:"requests"`
		Total    float64 `json:"total_s"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sweeps); err != nil {
		t.Fatalf("/sweeps is not an event list: %v", err)
	}
	if len(sweeps) == 0 {
		t.Fatal("/sweeps is empty after 20 rounds")
	}
	for _, ev := range sweeps {
		if ev.Requests <= 0 || ev.Total <= 0 {
			t.Fatalf("degenerate sweep event: %+v", ev)
		}
	}
}

func TestFaultsEndpoint(t *testing.T) {
	srv, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults: &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: 1, From: 0, Factor: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		srv.Step()
	}
	mux := newTelemetryMux(srv, nil, false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/faults", nil))
	if rec.Code != 200 {
		t.Fatalf("/faults status %d", rec.Code)
	}
	var status faultStatusReport
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("/faults is not JSON: %v", err)
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
	bare := newTelemetryMux(testServer(t), nil, false)
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == 200 {
		t.Errorf("/debug/pprof served without the flag (status %d)", rec.Code)
	}

	profiled := newTelemetryMux(testServer(t), nil, true)
	rec = httptest.NewRecorder()
	profiled.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof status %d with the flag", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	mux := newTelemetryMux(testServer(t), nil, false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: status %d body %q", rec.Code, rec.Body.String())
	}
}

func TestAdmissionEndpoint(t *testing.T) {
	srv := testServer(t)
	// Provoke one explained rejection so the endpoint shows a full story.
	for srv.Active() < srv.Capacity() {
		if _, _, err := srv.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := srv.Open("v"); err == nil {
		t.Fatal("open past capacity succeeded")
	}

	mux := newTelemetryMux(srv, nil, false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/admission", nil))
	if rec.Code != 200 {
		t.Fatalf("/admission status %d", rec.Code)
	}
	var st server.AdmissionStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/admission is not an admission status: %v", err)
	}
	if st.NMax != 26 || st.Capacity != 52 || len(st.Explanations) != 2 {
		t.Errorf("status nmax=%d capacity=%d explanations=%d", st.NMax, st.Capacity, len(st.Explanations))
	}
	for d, exp := range st.Explanations {
		if exp.Bound != "b_late" || exp.BindingK != 27 || !(exp.Theta > 0) || !(exp.Slack > 0) {
			t.Errorf("disk %d explanation incomplete: %+v", d, exp)
		}
	}
	if len(st.Rejections) != 1 || st.Rejections[0].Reason != server.RejectClassesFull {
		t.Errorf("rejections = %+v", st.Rejections)
	}
}

func TestTraceEndpoint(t *testing.T) {
	srv := testServer(t)
	mux := newTelemetryMux(srv, nil, false)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace status %d", rec.Code)
	}
	var rep traceReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/trace is not a trace report: %v", err)
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
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?format=chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace?format=chrome status %d", rec.Code)
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
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?source=frozen", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace?source=frozen status %d", rec.Code)
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
	mux := newTelemetryMux(testServer(t), nil, false)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("/slo status %d", rec.Code)
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
				Window   string  `json:"window"`
				Measured float64 `json:"measured"`
				Burn     float64 `json:"burn"`
			} `json:"windows"`
		} `json:"targets"`
		Hints []server.SLOHint `json:"hints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/slo is not a guarantee-audit report: %v", err)
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
	}
	if len(rep.Hints) != 0 {
		t.Errorf("healthy run published hints: %+v", rep.Hints)
	}

	// The metric surface carries the matching series.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		`mzqos_slo_budget{target="late"}`,
		`mzqos_slo_budget{target="glitch"}`,
		`mzqos_slo_alert_state{target="late"} 0`,
		`mzqos_slo_alerts_fired_total{target="late"} 0`,
		`mzqos_slo_measured{target="late",window="fast"}`,
		`mzqos_slo_burn_rate{target="glitch",window="slow"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// testCluster assembles a small cluster-mode stack the way runCluster
// does: server shards on a shared registry behind a coordinator.
func testCluster(t *testing.T) (*cluster.Coordinator, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
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
		engines[i] = srv
	}
	coord, err := cluster.New(cluster.Config{Engines: engines, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for range 10 {
		coord.Step()
	}
	return coord, reg
}

func TestClusterSLOAndReportEndpoints(t *testing.T) {
	coord, reg := testCluster(t)
	mux := newClusterMux(coord, reg, nil, false)

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
		`mzqos_cluster_slo_burn_rate{target="late",window="fast"}`,
		"mzqos_cluster_slo_firing_shards 0",
		`mzqos_slo_budget{shard="0",target="late"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// failedServer builds a server whose only disks fail at round 0 with
// degradation enabled, steps it until admission fail-closes, and returns
// it — the /healthz unavailable fixture.
func failedServer(t *testing.T) *server.Server {
	t.Helper()
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Failure, Disk: fault.AllDisks, From: 0},
	}}
	srv, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        1,
		Faults:      plan,
		Degrade:     server.DegradeConfig{Enabled: true, After: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		srv.Step()
	}
	if !srv.Health().Failed {
		t.Fatal("fixture server did not fail-close")
	}
	return srv
}

func TestHealthzFailureClosed(t *testing.T) {
	mux := newTelemetryMux(failedServer(t), nil, false)
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
	coord, reg := testCluster(t)
	mux := newClusterMux(coord, reg, nil, false)
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
		engines[i] = srv
	}
	failed, err := cluster.New(cluster.Config{Engines: engines, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	for range 6 { // past the degrade threshold; the view refreshes every round
		failed.Step()
	}
	mux = newClusterMux(failed, reg2, nil, false)
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
	reg := telemetry.NewRegistry()
	hist := history.New(history.Config{Registry: reg, Rounds: 128})
	srv, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Registry:    reg,
		History:     hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddSyntheticObject("v", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := srv.Open("v"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 20; r++ {
		srv.Step()
	}
	mux := newTelemetryMux(srv, hist, false)

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
	bare := newTelemetryMux(testServer(t), nil, false)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != 404 {
		t.Errorf("/query without history: status %d, want 404", rec.Code)
	}
}
