package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/dist"
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

// Endpoint goldens: FNV-1a digests of the bodies the two muxes serve after
// a seeded faulted run — the JSON surfaces and /dashboard's HTML at its
// default and a narrow window. They pin every retention buffer behind an
// endpoint — what it keeps, in which order, after it has wrapped — and
// every panel the dashboard draws from the history, so a change to how
// those buffers are stored or read cannot move a byte of what an operator
// reads. /metrics and the bundle's metrics block carry runtime series (GC,
// goroutines) and are left out.

// bodyDigest returns the FNV-1a digest of a GET's response body.
func bodyDigest(t *testing.T, mux *http.ServeMux, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	h := fnv.New64a()
	h.Write(rec.Body.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// jsonDigest digests v's indented JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// The goldens' run lengths, and the /query both endpoint goldens add: the
// windowed p99 of every per-disk round-time histogram.
const (
	goldenServerRounds  = 400
	goldenClusterRounds = 200
	goldenShards        = 3
	goldenQuery         = "/query?series=mzqos_server_round_time_seconds&agg=p99&step=64"
)

func checkGolden(t *testing.T, got, want map[string]string) {
	t.Helper()
	for path, w := range want {
		if got[path] != w {
			t.Errorf("%s digest = %s, want %s", path, got[path], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("digested %d surfaces, want %d", len(got), len(want))
	}
}

// goldenArrivals opens Poisson(rate) streams on Zipf-free uniform clips,
// the draw order mzserver's loop uses.
func goldenArrivals(rate float64, clips int, rng interface {
	Float64() float64
	IntN(int) int
}, open func(name string)) {
	for k := poisson(rate, rng); k > 0; k-- {
		open(fmt.Sprintf("clip-%03d", rng.IntN(clips)))
	}
}

// goldenServer is the endpoint goldens' seeded single server, shard 0 of a
// one-shard coordinator as mzserver wires it: journaled, traced,
// degrading, driven through a latency fault long enough to wrap the
// journal and to fire and resolve an SLO alert. The coordinator takes the
// opens and the steps and samples the history. beforeStep (nil = none)
// runs each round after the arrivals and before Step, with a builder of
// the run's mux.
func goldenServer(t *testing.T, reg *telemetry.Registry, hist *history.Store, beforeStep func(r int, mux func() *http.ServeMux)) (*cluster.Coordinator, *server.Server, *journal.Journal, *journal.Ledger) {
	t.Helper()
	// Journal and ledger are sized so this run wraps them too.
	jnl := journal.New(journal.Config{Capacity: 1024, Registry: reg})
	led := journal.NewLedger(journal.LedgerConfig{Retired: 256})
	srv, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    2,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        42,
		Faults: &fault.Plan{Seed: 5, Faults: []fault.Fault{
			{Kind: fault.Latency, Disk: 0, From: 100, Until: 260, Factor: 2},
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: 150, Until: 200, Prob: 0.02, Retries: 1},
		}},
		Degrade:        server.DegradeConfig{Enabled: true, After: 8},
		SLO:            slo.Config{FastWindow: 16, SlowWindow: 64, ResolvedFor: 16},
		Registry:       reg,
		InstanceLabels: []telemetry.Label{telemetry.L("shard", "0")},
		Journal:        jnl,
		Ledger:         led,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{
		Engines: []engine.Engine{srv}, Registry: reg, Journal: jnl, Ledger: led, History: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clips = 40
	rng := dist.NewRand(42, 42^0xfeed)
	for i := 0; i < clips; i++ {
		if err := srv.AddSyntheticObject(fmt.Sprintf("clip-%03d", i), 20+rng.IntN(60)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < goldenServerRounds; r++ {
		goldenArrivals(3, clips, rng, func(name string) { _, _, _ = coord.Open(name) })
		if beforeStep != nil {
			beforeStep(r, func() *http.ServeMux { return buildMux(coord, []*server.Server{srv}, hist, false) })
		}
		coord.Step()
	}
	return coord, srv, jnl, led
}

// TestServerEndpointGolden pins every JSON surface and the dashboard of a
// one-shard mux after goldenServer's run.
func TestServerEndpointGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	hist := history.New(history.Config{Registry: reg})
	coord, srv, jnl, led := goldenServer(t, reg, hist, nil)

	// The run must exercise what the digests are there to pin. A full
	// shard is never asked, so it counts no rejection of its own and the
	// journal holds every rejection, the coordinator's.
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindReject}
	if rej, jrej := shardRejected(t, srv, 0), jnl.Events(f); rej != 0 || len(jrej) < 256 {
		t.Fatalf("the shard rejected %d opens, the journal holds %d rejections: want 0 and at least 256", rej, len(jrej))
	}
	var fired, resolved int64
	for _, tg := range srv.SLOStatus().Targets {
		fired += tg.FiredTotal
		resolved += tg.ResolvedTotal
	}
	if fired == 0 || resolved == 0 {
		t.Fatalf("SLO alerts fired %d, resolved %d: want both", fired, resolved)
	}
	if js, lr := jnl.Stats(), led.Report(); js.Dropped == 0 || lr.RetiredTotal <= int64(lr.Retained) {
		t.Fatalf("journal dropped %d, ledger retired %d of %d retained: want both wrapped",
			js.Dropped, lr.RetiredTotal, lr.Retained)
	}
	if st := srv.Trace().Stats(); st.Recorded == 0 || st.Recorded > int64(st.Capacity) {
		t.Fatalf("trace recorded %d spans in a %d ring: /sweeps and /trace must hold the same sweeps", st.Recorded, st.Capacity)
	}

	mux := buildMux(coord, []*server.Server{srv}, hist, false)
	got := map[string]string{}
	for _, path := range []string{"/shard/0/sweeps", "/shard/0/admission", "/shard/0/slo", "/timeline", "/streams",
		"/shard/0/trace", "/shard/0/faults", "/cluster", "/admission", "/slo", "/report", goldenQuery,
		"/dashboard", "/dashboard?window=16"} {
		got[path] = bodyDigest(t, mux, path)
	}
	checkGolden(t, got, map[string]string{
		"/shard/0/sweeps":      "3e6504f91364721d",
		"/shard/0/admission":   "c9fdbf5bbf8531ff",
		"/shard/0/slo":         "d4c236384e2c1e26",
		"/timeline":            "930a3b54bcf14199",
		"/streams":             "07f1ca234d489ec2",
		"/shard/0/trace":       "9771e82b2947c4f3",
		"/shard/0/faults":      "b9d3b256b3614e69",
		"/cluster":             "9619ca5cc1ed181d",
		"/admission":           "e0d53267b3b5916e",
		"/slo":                 "60d70f1f19e3ab03",
		"/report":              "f3ceba6e75b3729f",
		goldenQuery:            "f770e9fa9b1a1b26",
		"/dashboard":           "c072cdbcd9a3ec2b",
		"/dashboard?window=16": "b4b9313fc00219c7",
	})
}

// TestDashboardDrawsShardStateBands: mzserver labels every shard's series
// with its shard, so /dashboard must draw the alert-state bands from each
// shard's state series. After goldenServer's run, in which the late and
// the glitch alert each fire and resolve, each target's panel holds one
// firing band per alert fired and one resolved band per alert resolved,
// the whole run being inside the default window. (An alert whose windows
// both reject in one round fires without a pending band.)
func TestDashboardDrawsShardStateBands(t *testing.T) {
	reg := telemetry.NewRegistry()
	hist := history.New(history.Config{Registry: reg})
	coord, srv, _, _ := goldenServer(t, reg, hist, nil)
	rec := httptest.NewRecorder()
	buildMux(coord, []*server.Server{srv}, hist, false).ServeHTTP(rec, httptest.NewRequest("GET", "/dashboard", nil))
	if rec.Code != 200 {
		t.Fatalf("/dashboard status %d", rec.Code)
	}
	var fired, resolved int64
	for _, tg := range srv.SLOStatus().Targets {
		if tg.FiredTotal == 0 {
			t.Fatalf("target %s never fired: the run does not exercise the bands", tg.Target)
		}
		fired += tg.FiredTotal
		resolved += tg.ResolvedTotal
	}
	body := rec.Body.String()
	band := func(color string) int64 {
		return int64(strings.Count(body, `fill="`+color+`" opacity="0.25"`))
	}
	if got := band("#f55"); got != fired {
		t.Errorf("/dashboard draws %d firing bands, want one per alert fired: %d", got, fired)
	}
	if got := band("#7ad"); got != resolved {
		t.Errorf("/dashboard draws %d resolved bands, want one per alert resolved: %d", got, resolved)
	}
}

// goldenCluster is the endpoint goldens' seeded 3-shard cluster, in which
// shard 0 degrades, fails and its streams migrate. Its shards are wired as
// mzserver wires them, tracing on. beforeStep (nil = none) runs each round
// after the arrivals and before Step, with a builder of the run's mux.
func goldenCluster(t *testing.T, reg *telemetry.Registry, hist *history.Store, beforeStep func(r int, mux func() *http.ServeMux)) (*cluster.Coordinator, []*server.Server, *journal.Journal) {
	t.Helper()
	jnl := journal.New(journal.Config{Registry: reg})
	led := journal.NewLedger(journal.LedgerConfig{})
	srvs := make([]*server.Server, goldenShards)
	engines := make([]engine.Engine, goldenShards)
	for i := range engines {
		cfg := server.Config{
			Disk:           disk.QuantumViking21(),
			NumDisks:       2,
			RoundLength:    1,
			Sizes:          workload.PaperSizes(),
			Guarantee:      model.Guarantee{Threshold: 0.01},
			Seed:           42 + uint64(i)*0x9e3779b9,
			Degrade:        server.DegradeConfig{Enabled: true, After: 4},
			SLO:            slo.Config{FastWindow: 8, SlowWindow: 16, ResolvedFor: 8},
			Registry:       reg,
			InstanceLabels: []telemetry.Label{telemetry.L("shard", fmt.Sprintf("%d", i))},
			Journal:        jnl,
			Ledger:         led,
			Shard:          i,
		}
		if i == 0 {
			cfg.Faults = &fault.Plan{Seed: 3, Faults: []fault.Fault{
				{Kind: fault.Latency, Disk: fault.AllDisks, From: 20, Until: 60, Factor: 3},
				{Kind: fault.Failure, Disk: fault.AllDisks, From: 90, Until: 130},
			}}
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
		Replicas: goldenShards,
		Migrate:  true,
		Journal:  jnl,
		Ledger:   led,
		History:  hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clips = 30
	rng := dist.NewRand(7, 7^0xfeed)
	for i := 0; i < clips; i++ {
		sizes := make([]float64, 20+rng.IntN(40))
		for j := range sizes {
			sizes[j] = workload.PaperSizes().Sample(rng)
		}
		if err := coord.AddObject(fmt.Sprintf("clip-%03d", i), sizes); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < goldenClusterRounds; r++ {
		goldenArrivals(4, clips, rng, func(name string) { _, _, _ = coord.Open(name) })
		if beforeStep != nil {
			beforeStep(r, func() *http.ServeMux { return buildMux(coord, srvs, hist, false) })
		}
		coord.Step()
	}
	return coord, srvs, jnl
}

// TestClusterEndpointGolden pins the cluster mux after goldenCluster's run.
// Shards step in parallel goroutines into one shared journal and ledger,
// so the order in which two shards' events of the same round interleave is
// not fixed: /timeline events and /streams retired records are digested
// per shard with the journal sequence left out; everything else is byte
// for byte.
func TestClusterEndpointGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	hist := history.New(history.Config{Registry: reg})
	coord, srvs, jnl := goldenCluster(t, reg, hist, nil)

	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindAdmit, journal.KindMigrate}
	if n := len(jnl.Events(f)); n <= admissionsShown {
		t.Fatalf("%d admit and migrate events: /admission must serve only the newest %d", n, admissionsShown)
	}
	if ms := coord.MigrationStats(); ms.Succeeded == 0 {
		t.Fatalf("no stream migrated: %+v", ms)
	}
	if st := jnl.Stats(); st.Dropped != 0 {
		t.Fatalf("journal wrapped (%d dropped): which events survive would depend on shard interleaving", st.Dropped)
	}

	mux := buildMux(coord, srvs, hist, false)
	got := map[string]string{}
	for _, path := range []string{"/cluster", "/admission", "/slo", "/report", goldenQuery, "/dashboard", "/dashboard?window=16"} {
		got[path] = bodyDigest(t, mux, path)
	}

	var tl timelineReport
	getJSON(t, mux, "/timeline", &tl)
	perShard := make([][]journal.Event, goldenShards)
	for _, e := range tl.Events {
		e.Seq = 0
		perShard[e.Shard] = append(perShard[e.Shard], e)
	}
	tl.Events = nil
	got["/timeline"] = jsonDigest(t, struct {
		Report   timelineReport
		PerShard [][]journal.Event
	}{tl, perShard})

	var st journal.Report
	getJSON(t, mux, "/streams", &st)
	retired := make([][]journal.Record, goldenShards)
	for _, rec := range st.Retired {
		retired[rec.Shard] = append(retired[rec.Shard], rec)
	}
	st.Retired = nil
	got["/streams"] = jsonDigest(t, struct {
		Report   journal.Report
		PerShard [][]journal.Record
	}{st, retired})

	checkGolden(t, got, map[string]string{
		"/cluster":             "713546d43d973f93",
		"/admission":           "9b8dc0240744e832",
		"/slo":                 "715824b5797ebd37",
		"/report":              "8ec5f1faec3322e6",
		"/timeline":            "846d5c71bd4bdfc4",
		"/streams":             "ae665b35eeb8238b",
		goldenQuery:            "73d2c5306a5f4863",
		"/dashboard":           "0948452b536fb050",
		"/dashboard?window=16": "dfe0a87e7eeb64f1",
	})
}

// goldenHistory builds the store TestHistoryOutputGolden reads: a fine
// ring that is not a multiple of any storage tile and wraps several times
// in both runs, under a coarse ring that reaches further back (160
// rounds) and wraps too, so queries cross from coarse blocks into fine
// points.
func goldenHistory(reg *telemetry.Registry) *history.Store {
	return history.New(history.Config{Registry: reg, Rounds: 50, CoarseBlock: 8, CoarseBlocks: 20})
}

// historyDisturber returns the beforeStep body of TestHistoryOutputGolden:
// everything besides the round loop's own Sample that reaches the store, at
// rounds spread over the run so some survive in the fine ring, some only in
// the coarse envelopes. Two gauges register mid-run (one early enough to
// wrap, one inside the final fine retention, so its first point is its
// attach round), and /metrics is scraped mid-run — the first scrape builds
// the mux, which registers the runtime and model series late. A scrape only
// reads: the digest is the one a run without scrapes gives.
func historyDisturber(t *testing.T, reg *telemetry.Registry, hist *history.Store, rounds int) func(r int, mux func() *http.ServeMux) {
	var early, late *telemetry.Gauge
	var m *http.ServeMux
	return func(r int, mux func() *http.ServeMux) {
		if r == rounds/4 {
			early = reg.Gauge("golden_early", "registered at a quarter of the run")
		}
		if r == rounds-30 {
			late = reg.Gauge("golden_late", "registered inside the last fine retention")
		}
		if early != nil {
			early.Set(float64(r % 11))
		}
		if late != nil {
			late.Set(float64(r % 5))
		}
		if r%53 == 11 {
			if m == nil {
				m = mux()
			}
			rec := httptest.NewRecorder()
			m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Fatalf("GET /metrics at round %d: status %d", r, rec.Code)
			}
		}
	}
}

// processWide reports the series left out of the history digest: runtime
// and model-cache series describe the test process, not the seeded run.
func processWide(name string) bool {
	return strings.HasPrefix(name, "mzqos_go_") || strings.HasPrefix(name, "mzqos_model_")
}

// historyDigest digests everything a reader can get out of the store:
// Query for every series name × every agg × step {1, 7, 64, 500} ×
// since_round {0, coarse region, fine region}, TailTrajectory for every
// id, and both Dump sizes.
func historyDigest(t *testing.T, st *history.Store) string {
	t.Helper()
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	last := int64(st.LastRound())
	// The distinct metric names: every series id up to its label set.
	var names []string
	for _, id := range st.SeriesIDs() {
		name, _, _ := strings.Cut(id, "{")
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		if processWide(name) {
			continue
		}
		for _, agg := range []string{history.AggLast, history.AggRate, history.AggMin, history.AggMax, history.AggP50, history.AggP99, history.AggP999} {
			for _, step := range []int{1, 7, 64, 500} {
				for _, since := range []int64{0, last - 100, last - 20} {
					res, err := st.Query(history.Query{Series: name, Agg: agg, Step: step, SinceRound: since})
					if err != nil {
						put(err.Error())
						continue
					}
					put(res)
				}
			}
		}
	}
	for _, id := range st.SeriesIDs() {
		if processWide(id) {
			continue
		}
		for _, step := range []int{1, 16} {
			put(st.TailTrajectory(id, 1, 0, step))
			put(st.TailTrajectory(id, 0.5, last-20, step))
		}
	}
	for _, maxPoints := range []int{256, 0} {
		d := st.Dump(maxPoints)
		kept := d.Series[:0]
		for _, sr := range d.Series {
			if !processWide(sr.Name) {
				kept = append(kept, sr)
			}
		}
		d.Series = kept
		put(d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestHistoryOutputGolden pins what internal/history serves — /query,
// the dashboard's tail trajectories and the bundle's dump — after the two
// seeded runs above at a retention both rings wrap under, with every
// write path into the store exercised. The constants were taken at the
// per-series store's code, and moved twice since: when coarse points were
// stamped at their block's last round, and when the burn-rate series went
// (the cluster's pooled measured rate came in their place) and the SLO
// alert came to resolve on both windows. They must not move with how
// samples are stored.
func TestHistoryOutputGolden(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		hist := goldenHistory(reg)
		goldenServer(t, reg, hist, historyDisturber(t, reg, hist, goldenServerRounds))
		if got, want := historyDigest(t, hist), "ea7d1307a26140af"; got != want {
			t.Errorf("history digest = %s, want %s", got, want)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		hist := goldenHistory(reg)
		goldenCluster(t, reg, hist, historyDisturber(t, reg, hist, goldenClusterRounds))
		if got, want := historyDigest(t, hist), "90f5dd0d0362ce06"; got != want {
			t.Errorf("history digest = %s, want %s", got, want)
		}
	})
}
