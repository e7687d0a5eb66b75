package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// Endpoint goldens: FNV-1a digests of the JSON bodies the two muxes serve
// after a seeded faulted run. They pin every retention buffer behind an
// endpoint — what it keeps, in which order, after it has wrapped — so a
// change to how those buffers are stored cannot move a byte of what an
// operator reads. /metrics, /debug/vars and the bundle's metrics block
// carry runtime series (GC, goroutines) and are left out.

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

// TestServerEndpointGolden drives one journaled, traced, degrading server
// through a latency fault long enough to wrap the 256-slot rejection ring
// and to fire and resolve an SLO alert, then pins every JSON surface.
func TestServerEndpointGolden(t *testing.T) {
	model.ResetDecisions() // recent_decisions is process-wide
	reg := telemetry.NewRegistry()
	// Journal, ledger and SLO history are sized so this run wraps them too.
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
		Degrade:  server.DegradeConfig{Enabled: true, After: 8},
		SLO:      slo.Config{FastWindow: 16, SlowWindow: 64, Hold: 4, ResolvedFor: 16, History: 4},
		Registry: reg,
		Journal:  jnl,
		Ledger:   led,
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
	for r := 0; r < 400; r++ {
		goldenArrivals(3, clips, rng, func(name string) { _, _, _ = srv.Open(name) })
		srv.Step()
	}

	// The run must exercise what the digests are there to pin.
	if rej := srv.Rejections(); len(rej) != 256 || rej[0].Seq == 0 {
		t.Fatalf("rejection ring not wrapped: %d retained, first seq %d", len(rej), rej[0].Seq)
	}
	var fired, resolved int64
	for _, tg := range srv.SLOStatus().Targets {
		fired += tg.FiredTotal
		resolved += tg.ResolvedTotal
	}
	if fired == 0 || resolved == 0 {
		t.Fatalf("SLO alerts fired %d, resolved %d: want both", fired, resolved)
	}
	if js, lr := jnl.Stats(), led.Report(); js.Dropped == 0 || lr.RetiredTotal <= int64(lr.Retained) || len(srv.SLOStatus().History) != 4 {
		t.Fatalf("journal dropped %d, ledger retired %d of %d retained, %d SLO transitions: want all three wrapped",
			js.Dropped, lr.RetiredTotal, lr.Retained, len(srv.SLOStatus().History))
	}
	if st := srv.Trace().Stats(); st.Recorded == 0 || st.Recorded > int64(st.Capacity) {
		t.Fatalf("trace recorded %d spans in a %d ring: /sweeps and /trace must hold the same sweeps", st.Recorded, st.Capacity)
	}

	mux := newTelemetryMux(srv, nil, false)
	got := map[string]string{}
	for _, path := range []string{"/sweeps", "/admission", "/slo", "/timeline", "/streams", "/trace", "/faults", "/report"} {
		got[path] = bodyDigest(t, mux, path)
	}
	checkGolden(t, got, map[string]string{
		"/sweeps":    "3e6504f91364721d",
		"/admission": "cd8baf2e46446363",
		"/slo":       "ab97ac43ef3e323a",
		"/timeline":  "f404468c84198ab0",
		"/streams":   "215f3e9c01754ddb",
		"/trace":     "9771e82b2947c4f3",
		"/faults":    "b9d3b256b3614e69",
		"/report":    "5234f344ac0aa0cb",
	})
}

// TestClusterEndpointGolden pins the cluster mux after a 3-shard run in
// which shard 0 fails and its streams migrate. Shards step in parallel
// goroutines into one shared journal and ledger, so the order in which
// two shards' events of the same round interleave is not fixed: /timeline
// events and /streams retired records are digested per shard with the
// journal sequence left out; everything else is byte for byte.
func TestClusterEndpointGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	jnl := journal.New(journal.Config{Registry: reg})
	led := journal.NewLedger(journal.LedgerConfig{})
	const shards = 3
	engines := make([]engine.Engine, shards)
	for i := range engines {
		cfg := server.Config{
			Disk:           disk.QuantumViking21(),
			NumDisks:       2,
			RoundLength:    1,
			Sizes:          workload.PaperSizes(),
			Guarantee:      model.Guarantee{Threshold: 0.01},
			Seed:           42 + uint64(i)*0x9e3779b9,
			Degrade:        server.DegradeConfig{Enabled: true, After: 4},
			SLO:            slo.Config{FastWindow: 8, SlowWindow: 16, Burn: 1.5, Hold: 2, ResolvedFor: 8},
			Registry:       reg,
			InstanceLabels: []telemetry.Label{telemetry.L("shard", fmt.Sprintf("%d", i))},
			Journal:        jnl,
			Ledger:         led,
			Shard:          i,
		}
		cfg.Trace.Disabled = true // as runCluster wires its shards
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
		engines[i] = srv
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
	for r := 0; r < 200; r++ {
		goldenArrivals(4, clips, rng, func(name string) { _, _, _ = coord.Open(name) })
		coord.Step()
	}

	adm := coord.Admissions()
	if len(adm) != 256 {
		t.Fatalf("cluster admission ring not wrapped: %d retained", len(adm))
	}
	if ms := coord.MigrationStats(); ms.Succeeded == 0 {
		t.Fatalf("no stream migrated: %+v", ms)
	}
	if st := jnl.Stats(); st.Dropped != 0 {
		t.Fatalf("journal wrapped (%d dropped): which events survive would depend on shard interleaving", st.Dropped)
	}

	mux := newClusterMux(coord, reg, nil, false)
	got := map[string]string{}
	for _, path := range []string{"/cluster", "/admission", "/slo", "/report"} {
		got[path] = bodyDigest(t, mux, path)
	}

	var tl timelineReport
	getJSON(t, mux, "/timeline", &tl)
	perShard := make([][]journal.Event, shards)
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
	retired := make([][]journal.Record, shards)
	for _, rec := range st.Retired {
		retired[rec.Shard] = append(retired[rec.Shard], rec)
	}
	st.Retired = nil
	got["/streams"] = jsonDigest(t, struct {
		Report   journal.Report
		PerShard [][]journal.Record
	}{st, retired})

	checkGolden(t, got, map[string]string{
		"/cluster":   "f8d72c66e39a8724",
		"/admission": "69031a30643cecd8",
		"/slo":       "00eba5a4dbe78d04",
		"/report":    "8ec5f1faec3322e6",
		"/timeline":  "0b2b7e5c7027967f",
		"/streams":   "dd8bb734f63d35a7",
	})
}
