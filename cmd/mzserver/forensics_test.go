package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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

// journaledServerMux serves a one-shard stack with the journal wired
// (testStack wires none).
func journaledServerMux(t *testing.T) *http.ServeMux {
	t.Helper()
	cfg := paperConfig(42)
	cfg.Registry = telemetry.NewRegistry()
	cfg.Journal = journal.New(journal.Config{Registry: cfg.Registry})
	cfg.Ledger = journal.NewLedger(journal.LedgerConfig{})
	coord, srv := oneShardStack(t, cfg, nil)
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
	return shardMux(coord, srv, nil)
}

func getJSON(t *testing.T, mux *http.ServeMux, path string, dst any) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("GET %s: not JSON: %v", path, err)
	}
}

func TestTimelineEndpoint(t *testing.T) {
	mux := journaledServerMux(t)

	var rep timelineReport
	getJSON(t, mux, "/timeline", &rep)
	if !rep.Enabled {
		t.Fatal("/timeline reports journal disabled on a journaled server")
	}
	if len(rep.Kinds) != len(journal.Kinds()) {
		t.Fatalf("kinds list has %d entries, want %d", len(rep.Kinds), len(journal.Kinds()))
	}
	if len(rep.Events) == 0 {
		t.Fatal("/timeline has no events after 8 admits")
	}
	for i := 1; i < len(rep.Events); i++ {
		if rep.Events[i].Seq <= rep.Events[i-1].Seq {
			t.Fatalf("seq not strictly increasing: %d then %d",
				rep.Events[i-1].Seq, rep.Events[i].Seq)
		}
	}
	if rep.Stats.HeadSeq != rep.Events[len(rep.Events)-1].Seq {
		t.Fatalf("head seq %d != last event seq %d",
			rep.Stats.HeadSeq, rep.Events[len(rep.Events)-1].Seq)
	}

	// Kind filter: only admits, and exactly the 8 opens.
	var admits timelineReport
	getJSON(t, mux, "/timeline?kind=admit", &admits)
	if len(admits.Events) != 8 {
		t.Fatalf("kind=admit returned %d events, want 8", len(admits.Events))
	}
	for _, e := range admits.Events {
		if e.Kind != journal.KindAdmit {
			t.Fatalf("kind filter leaked a %s event", e.Kind)
		}
	}

	// Since-seq filter composes with the full view.
	mid := rep.Events[len(rep.Events)/2].Seq
	var since timelineReport
	getJSON(t, mux, fmt.Sprintf("/timeline?since=%d", mid), &since)
	for _, e := range since.Events {
		if e.Seq <= mid {
			t.Fatalf("since=%d returned seq %d", mid, e.Seq)
		}
	}

	// Unknown kind names are a client error, not an empty match.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/timeline?kind=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus kind: status %d, want 400", rec.Code)
	}

	// NDJSON export: one parseable event per line, same count as JSON.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/timeline?format=ndjson", nil))
	if rec.Code != 200 {
		t.Fatalf("ndjson status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("ndjson content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != len(rep.Events) {
		t.Fatalf("ndjson has %d lines, JSON had %d events", len(lines), len(rep.Events))
	}
	var e journal.Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("ndjson line does not parse: %v", err)
	}
}

func TestTimelineDisabledAndOwnLedgerServedWithoutJournal(t *testing.T) {
	// testStack wires no journal: /timeline must still serve (empty)
	// rather than panic on the nil journal, and /streams and the bundle
	// serve the one ledger the stack's shard and coordinator share.
	mux := testMux(t)

	var rep timelineReport
	getJSON(t, mux, "/timeline", &rep)
	if rep.Enabled || len(rep.Events) != 0 {
		t.Fatalf("nil journal served enabled=%v with %d events", rep.Enabled, len(rep.Events))
	}
	var led journal.Report
	getJSON(t, mux, "/streams", &led)
	if led.ActiveStreams != 8 || len(led.Active) != 8 || led.RetiredTotal != 0 {
		t.Fatalf("the stack's ledger served %d active (%d records), %d retired; want 8, 8, 0",
			led.ActiveStreams, len(led.Active), led.RetiredTotal)
	}
	var bundle struct {
		Schema  string         `json:"schema"`
		Streams journal.Report `json:"streams"`
	}
	getJSON(t, mux, "/debug/bundle", &bundle)
	if bundle.Schema == "" {
		t.Fatal("nil-journal bundle lacks schema")
	}
	if bundle.Streams.ActiveStreams != 8 {
		t.Fatalf("bundle streams has %d active, want the stack ledger's 8", bundle.Streams.ActiveStreams)
	}
}

func TestStreamsEndpoint(t *testing.T) {
	mux := journaledServerMux(t)
	var rep journal.Report
	getJSON(t, mux, "/streams", &rep)
	if rep.ActiveStreams != 8 || len(rep.Active) != 8 {
		t.Fatalf("active streams %d (%d records), want 8", rep.ActiveStreams, len(rep.Active))
	}
	for _, rec := range rep.Active {
		if rec.AdmitSeq == 0 || rec.Promised.BindingK <= 0 || rec.Promised.BoundLate <= 0 {
			t.Fatalf("record missing promise fields: %+v", rec)
		}
		if rec.Object != "v" {
			t.Fatalf("record object %q, want v", rec.Object)
		}
	}
}

func TestServerDebugBundle(t *testing.T) {
	mux := journaledServerMux(t)
	var b struct {
		Schema    string          `json:"schema"`
		Kind      string          `json:"kind"`
		Round     int             `json:"round"`
		Config    bundleGeometry  `json:"config"`
		Timeline  timelineReport  `json:"timeline"`
		Streams   journal.Report  `json:"streams"`
		Admission json.RawMessage `json:"admission"`
		SLO       json.RawMessage `json:"slo"`
		Metrics   json.RawMessage `json:"metrics"`
	}
	getJSON(t, mux, "/debug/bundle", &b)
	if b.Schema != bundleSchema || b.Kind != "cluster" {
		t.Fatalf("bundle header %q/%q", b.Schema, b.Kind)
	}
	if b.Round != 20 {
		t.Fatalf("bundle round %d, want 20", b.Round)
	}
	if b.Config.Disks != 2 || b.Config.Capacity <= 0 {
		t.Fatalf("bundle geometry %+v", b.Config)
	}
	if !b.Timeline.Enabled || len(b.Timeline.Events) == 0 {
		t.Fatal("bundle timeline empty")
	}
	if b.Streams.ActiveStreams != 8 {
		t.Fatalf("bundle streams %+v", b.Streams)
	}
	for name, raw := range map[string]json.RawMessage{
		"admission": b.Admission, "slo": b.SLO,
	} {
		if len(raw) == 0 || string(raw) == "null" {
			t.Fatalf("bundle section %q missing", name)
		}
	}
	// The metrics block is the registry's JSON rendering with live values.
	if got := bundleRounds(t, b.Metrics); got != int64(b.Round) {
		t.Fatalf("bundle metrics carry mzqos_server_rounds_total = %d, want the bundle's round %d", got, b.Round)
	}
}

// bundleRounds decodes a bundle's metrics block as a telemetry.Snapshot and
// sums mzqos_server_rounds_total over its series (one per shard).
func bundleRounds(t *testing.T, metrics json.RawMessage) int64 {
	t.Helper()
	var snap telemetry.Snapshot
	if err := json.Unmarshal(metrics, &snap); err != nil {
		t.Fatalf("bundle metrics are not a snapshot: %v", err)
	}
	var rounds int64
	for _, c := range snap.Counters {
		if c.Name == "mzqos_server_rounds_total" {
			rounds += c.Value
		}
	}
	return rounds
}

// journaledTestCluster builds a 3-shard cluster sharing one journal and
// ledger, with a latency fault pinned to shard 0, degraded mode, stream
// migration, and fast SLO windows so a full incident arc fits in a short
// test run.
func journaledTestCluster(t *testing.T) (*cluster.Coordinator, []*server.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	jnl := journal.New(journal.Config{Registry: reg})
	led := journal.NewLedger(journal.LedgerConfig{})
	const shards = 3
	srvs := make([]*server.Server, shards)
	engines := make([]engine.Engine, shards)
	for i := range engines {
		cfg := server.Config{
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
			Journal: jnl,
			Ledger:  led,
			Shard:   i,
			Degrade: server.DegradeConfig{Enabled: true},
			SLO:     slo.Config{FastWindow: 8, SlowWindow: 16, ResolvedFor: 8},
		}
		if i == 0 {
			cfg.Faults = &fault.Plan{
				Seed: 3,
				Faults: []fault.Fault{
					{Kind: fault.Latency, Disk: fault.AllDisks, From: 10, Until: 40, Factor: 3},
				},
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], engines[i] = srv, srv
	}
	coord, err := cluster.New(cluster.Config{
		Engines:  engines,
		Registry: reg,
		Replicas: shards,
		Migrate:  true,
		Journal:  jnl,
		Ledger:   led,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord, srvs
}

// TestBundleNonFiniteFailsClosed is TestQueryNonFiniteFailsClosed's twin
// for the mux's endpoints, which answer through the same
// telemetry.WriteJSON: one gauge at +Inf (which /metrics prints) must not
// turn the incident bundle into 200 with an empty body.
func TestBundleNonFiniteFailsClosed(t *testing.T) {
	cfg := paperConfig(42)
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	hist := history.New(history.Config{Registry: reg, Rounds: 64})
	coord, srv := oneShardStack(t, cfg, hist)
	mux := shardMux(coord, srv, hist)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	coord.Step()
	if rec := get("/debug/bundle"); rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/debug/bundle of a finite registry: status %d, valid JSON %v", rec.Code, json.Valid(rec.Body.Bytes()))
	}
	reg.Gauge("mzqos_test_unbounded", "").Set(math.Inf(1))
	coord.Step()
	if rec := get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "mzqos_test_unbounded +Inf") {
		t.Fatalf("/metrics does not print the +Inf gauge: status %d", rec.Code)
	}
	if rec := get("/debug/bundle"); rec.Code != 500 || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Errorf("/debug/bundle over a +Inf gauge: status %d, body %q; want 500 and the encoder's message", rec.Code, rec.Body.String())
	}
}

// TestClusterIncidentArcFromTimeline is the acceptance check on the
// journal: a latency fault on shard 0 must leave a reconstructable arc —
// fault_inject, SLO firing, evictions, migrations to sibling shards,
// fault_clear, restore, SLO resolution — purely from /timeline, in strict
// sequence order, with valid migration endpoints and the binding bound
// quoted on every firing.
func TestClusterIncidentArcFromTimeline(t *testing.T) {
	coord, srvs := journaledTestCluster(t)

	// Fill the cluster to ~60% so shard 0's shed streams find room on
	// the siblings (replicas=3 places every clip on all shards).
	sizes := make([]float64, 300)
	for i := range sizes {
		sizes[i] = 200e3
	}
	opened := 0
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("clip-%d", i)
		if err := coord.AddObject(name, sizes); err != nil {
			t.Fatal(err)
		}
		if _, _, err := coord.Open(name); err == nil {
			opened++
		}
	}
	if opened < 60 {
		t.Fatalf("only %d of 90 opens admitted; cluster too small for the arc", opened)
	}
	for range 80 {
		coord.Step()
	}

	mux := buildMux(coord, srvs, nil, false)
	var rep timelineReport
	getJSON(t, mux, "/timeline", &rep)
	if !rep.Enabled || len(rep.Events) == 0 {
		t.Fatal("cluster timeline empty")
	}
	for i := 1; i < len(rep.Events); i++ {
		if rep.Events[i].Seq <= rep.Events[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d",
				i, rep.Events[i-1].Seq, rep.Events[i].Seq)
		}
	}

	first := map[journal.Kind]uint64{}
	count := map[journal.Kind]int{}
	for _, e := range rep.Events {
		if _, ok := first[e.Kind]; !ok {
			first[e.Kind] = e.Seq
		}
		count[e.Kind]++
	}
	for _, k := range []journal.Kind{
		journal.KindFaultInject, journal.KindSLOFiring, journal.KindDegrade,
		journal.KindEvict, journal.KindMigrate, journal.KindFaultClear,
		journal.KindRestore, journal.KindSLOResolved,
	} {
		if count[k] == 0 {
			t.Fatalf("arc incomplete: no %s events (have %v)", k, count)
		}
	}

	// The causal chain, by first occurrence: the fault lands before the
	// alert fires and before anything is shed; the first migration
	// follows the first eviction; recovery events follow the clear.
	order := []struct {
		before, after journal.Kind
	}{
		{journal.KindFaultInject, journal.KindSLOFiring},
		{journal.KindFaultInject, journal.KindDegrade},
		{journal.KindDegrade, journal.KindEvict},
		{journal.KindEvict, journal.KindMigrate},
		{journal.KindFaultClear, journal.KindRestore},
		{journal.KindSLOFiring, journal.KindSLOResolved},
	}
	for _, o := range order {
		if first[o.before] >= first[o.after] {
			t.Fatalf("arc out of order: first %s (seq %d) not before first %s (seq %d)",
				o.before, first[o.before], o.after, first[o.after])
		}
	}

	// Every migration names a valid source and destination shard.
	shards := len(srvs)
	for _, e := range rep.Events {
		if e.Kind != journal.KindMigrate {
			continue
		}
		if e.From < 0 || e.From >= shards || e.To < 0 || e.To >= shards {
			t.Fatalf("migrate endpoints out of range: %+v", e)
		}
		if e.From == e.To {
			t.Fatalf("migrate to the same shard: %+v", e)
		}
		if e.Stream == 0 || e.Object == "" {
			t.Fatalf("migrate without stream identity: %+v", e)
		}
	}

	// Every firing quotes the binding admission constraint it audits.
	for _, e := range rep.Events {
		if e.Kind == journal.KindSLOFiring && !strings.Contains(e.Detail, "binding k=") {
			t.Fatalf("firing without binding bound: %+v", e)
		}
	}
	// Firings come from the faulted shard.
	var firings timelineReport
	getJSON(t, mux, "/timeline?kind=slo_firing&shard=0", &firings)
	if len(firings.Events) != count[journal.KindSLOFiring] {
		t.Fatalf("%d of %d firings on shard 0", len(firings.Events), count[journal.KindSLOFiring])
	}

	// The ledger carries the migrations as merged lineages.
	var led journal.Report
	getJSON(t, mux, "/streams", &led)
	migrated := 0
	for _, rec := range append(led.Active, led.Retired...) {
		if rec.Migrations > 0 {
			migrated++
			if len(rec.ShardsVisited) < 2 {
				t.Fatalf("migrated record without lineage: %+v", rec)
			}
		}
	}
	if migrated == 0 {
		t.Fatalf("no migrated lineages in the ledger (%d migrate events)", count[journal.KindMigrate])
	}

	// The cluster bundle freezes the same arc in one document.
	var b struct {
		Schema    string          `json:"schema"`
		Kind      string          `json:"kind"`
		Round     int             `json:"round"`
		Config    bundleGeometry  `json:"config"`
		Timeline  timelineReport  `json:"timeline"`
		Cluster   json.RawMessage `json:"cluster"`
		Migration json.RawMessage `json:"migration"`
		Metrics   json.RawMessage `json:"metrics"`
	}
	getJSON(t, mux, "/debug/bundle", &b)
	if b.Schema != bundleSchema || b.Kind != "cluster" {
		t.Fatalf("cluster bundle header %q/%q", b.Schema, b.Kind)
	}
	if b.Config.Shards != shards {
		t.Fatalf("bundle shards %d, want %d", b.Config.Shards, shards)
	}
	if len(b.Timeline.Events) == 0 || len(b.Cluster) == 0 || len(b.Migration) == 0 {
		t.Fatal("cluster bundle sections missing")
	}
	// Every shard steps once per coordinator round.
	if got := bundleRounds(t, b.Metrics); b.Round != 80 || got != int64(shards*b.Round) {
		t.Fatalf("bundle metrics carry mzqos_server_rounds_total = %d over %d shards at round %d", got, shards, b.Round)
	}
}
