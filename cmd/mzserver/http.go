package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"strconv"
	"time"

	"mzqos/internal/cluster"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
)

// buildMux wires the telemetry endpoints over the coordinator and its
// shards, srvs[i] being shard i:
//
//	/metrics     Prometheus text exposition (server, cluster and model
//	             series; shards are told apart by the shard label)
//	/report      the live bound-tightness report of every shard as JSON
//	/admission   the routing policy and the newest 256 admit and migrate
//	             events of the journal: each admission's shard, stream and
//	             slotting delay, each migration's source and destination
//	/slo         the guarantee audit rolled up by capacity across shards
//	/cluster     shard health and the placement summary (cluster.Status)
//	/timeline    the event journal: sequence-ordered admit/reject/evict/
//	             fault/SLO/freeze/migrate events, filterable by since-seq,
//	             kind, shard, disk, stream; ?format=ndjson for line-JSON
//	/streams     the QoS ledger: promised-vs-delivered record per stream
//	             with fleet-level delivered-tail percentiles
//	/debug/bundle one-shot incident snapshot: timeline + metrics + slo +
//	             admission + cluster + every shard's faults and frozen
//	             trace + history in one JSON document
//	/query       the embedded metrics history: windowed trajectories of any
//	             registry series (?series=&since_round=&step=&agg=), JSON or
//	             NDJSON — only when hist is non-nil
//	/dashboard   the self-contained bound-tightness dashboard (inline SVG,
//	             no external assets) — only when hist is non-nil
//	/healthz     readiness probe: 200 while some shard can admit, 503 with
//	             a JSON cause once none can
//	/debug/pprof runtime profiling, only when withPprof is set
//
// and each shard's own views under /shard/{i}/, for every i in
// [0, len(srvs)); any other i answers 404:
//
//	admission    the admission-explanation report: per-disk decision
//	             traces (binding k, bound, θ, slack), class occupancy and
//	             N_max evaluations. The rejections are the journal's, on
//	             /timeline?kind=reject (the coordinator never asks a full
//	             shard to admit, so they name the shard tried first)
//	slo          the shard's audit status and its newest 128 incidents:
//	             its slo_pending, slo_firing and slo_resolved events on
//	             the journal, a firing naming the binding constraint
//	sweeps       recent per-sweep phase breakdowns as JSON: the flight
//	             recorder's spans without their requests
//	faults       the fault plan and the latest round's per-disk effects
//	trace        the flight recorder: live span history or the frozen
//	             trigger snapshot as JSON; ?format=chrome re-renders
//	             either as Chrome trace-event JSON for Perfetto
//
// Everything served here reads atomic metrics or lock-guarded snapshots,
// so scraping is safe while the round loop runs.
func buildMux(coord *cluster.Coordinator, srvs []*server.Server, hist *history.Store, withPprof bool) *http.ServeMux {
	reg := srvs[0].Telemetry().Registry()
	model.RegisterTelemetry(reg)
	telemetry.RegisterRuntimeMetrics(reg)

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.HandleFunc("/report", jsonHandler(func() any { return coord.TightnessReport() }))
	mux.HandleFunc("/admission", jsonHandler(func() any { return admissions(coord) }))
	mux.HandleFunc("/slo", jsonHandler(func() any { return coord.SLOStatus() }))
	mux.HandleFunc("/cluster", jsonHandler(func() any { return coord.Status() }))
	mux.HandleFunc("/timeline", timelineHandler(coord.Journal()))
	mux.HandleFunc("/streams", streamsHandler(coord.QoSLedger()))
	mux.HandleFunc("/debug/bundle", bundleHandler(coord, srvs, reg, hist))
	if hist != nil {
		mux.HandleFunc("/query", hist.QueryHandler())
		mux.HandleFunc("/dashboard", hist.DashboardHandler(history.DashboardConfig{
			Title:       "mzqos",
			RoundLength: srvs[0].RoundLength(),
		}))
	}
	mux.HandleFunc("/healthz", healthzHandler(coord))
	for view, payload := range shardViews {
		mux.HandleFunc("/shard/{i}/"+view, shardHandler(len(srvs), func(i int, q url.Values) any { return payload(srvs[i], q) }))
	}
	mux.HandleFunc("/shard/{i}/slo", shardHandler(len(srvs), func(i int, _ url.Values) any {
		return shardSLO(srvs[i], coord.Journal(), i)
	}))
	if withPprof {
		registerPprof(mux)
	}
	return mux
}

// jsonHandler serves whatever payload returns as indented JSON.
func jsonHandler(payload func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { telemetry.WriteJSON(w, payload()) }
}

// admissionsShown is how many of the journal's newest admit and migrate
// events /admission serves.
const admissionsShown = 256

// admissionReport is the /admission payload: the routing policy and the
// newest admissions on the journal, oldest first — admit events naming
// the shard that admitted and the slotting delay it charged, and migrate
// events naming a re-admission's source and destination shards.
type admissionReport struct {
	Route      string          `json:"route"`
	Admissions []journal.Event `json:"admissions"`
}

func admissions(coord *cluster.Coordinator) admissionReport {
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindAdmit, journal.KindMigrate}
	f.Limit = admissionsShown
	return admissionReport{Route: coord.Route(), Admissions: coord.Journal().Events(f)}
}

// shardViews are the payloads served under /shard/{i}/ that read the
// shard alone, by view name; slo reads the journal too (shardSLO).
var shardViews = map[string]func(srv *server.Server, q url.Values) any{
	"admission": func(srv *server.Server, _ url.Values) any { return srv.AdmissionStatus() },
	"sweeps":    func(srv *server.Server, _ url.Values) any { return recentSweeps(srv.Trace()) },
	"faults":    func(srv *server.Server, _ url.Values) any { return faultStatus(srv) },
	"trace":     traceStatus,
}

// shardHandler serves one view of the shard the path names, one of
// shards, or 404 for a path value that names no shard.
func shardHandler(shards int, payload func(i int, q url.Values) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.PathValue("i"))
		if err != nil || i < 0 || i >= shards {
			http.Error(w, fmt.Sprintf("no shard %q: shards are 0..%d", r.PathValue("i"), shards-1), http.StatusNotFound)
			return
		}
		telemetry.WriteJSON(w, payload(i, r.URL.Query()))
	}
}

// sweepEvent is one /shard/{i}/sweeps row: a SCAN sweep broken down into the three
// service phases of the paper's model (eq. 3.1.1). Total is their sum —
// the realized T_N.
type sweepEvent struct {
	Round    int     `json:"round"`
	Disk     int     `json:"disk"`
	Requests int     `json:"requests"`
	Late     int     `json:"late"`
	Seek     float64 `json:"seek_s"`
	Rotation float64 `json:"rotation_s"`
	Transfer float64 `json:"transfer_s"`
	Total    float64 `json:"total_s"`
}

// recentSweeps projects the flight recorder's live span headers onto
// /shard/{i}/sweeps rows, oldest first. It follows the recorder: -trace-spans sizes
// it and -no-trace empties it.
func recentSweeps(trc *trace.Recorder) []sweepEvent {
	spans := trc.Sweeps()
	out := make([]sweepEvent, len(spans))
	for i, sp := range spans {
		out[i] = sweepEvent{
			Round:    sp.Round,
			Disk:     sp.Disk,
			Requests: sp.Requests,
			Late:     sp.Late,
			Seek:     sp.Seek,
			Rotation: sp.Rotation,
			Transfer: sp.Transfer,
			Total:    sp.Busy,
		}
	}
	return out
}

// healthzHandler is the /healthz readiness probe: 200 {"status":"ok"}
// while some shard can admit work, 503 with the cause once none can —
// every shard failure-closed, or every shard degraded to zero capacity.
// Orchestrators and the smoke scripts key on the status code; the cause
// is for humans reading the body.
func healthzHandler(coord *cluster.Coordinator) http.HandlerFunc {
	type health struct {
		Status string `json:"status"`
		Cause  string `json:"cause,omitempty"`
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		allFailed, allZero := true, true
		for _, row := range coord.Status().Shards {
			allFailed = allFailed && row.Health.Failed
			allZero = allZero && row.Health.Capacity == 0
		}
		cause := ""
		switch {
		case allFailed:
			cause = "every shard failure-closed (disk failure)"
		case allZero:
			cause = "every shard degraded to zero capacity"
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if cause != "" {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(health{Status: "unavailable", Cause: cause})
			return
		}
		_ = json.NewEncoder(w).Encode(health{Status: "ok"})
	}
}

// shutdownDrain bounds how long a stopping telemetry endpoint waits for
// in-flight scrapes before closing their connections.
const shutdownDrain = 2 * time.Second

// startTelemetry serves mux on addr in the background and returns the
// server handle so the caller can drain it with shutdownTelemetry.
func startTelemetry(addr string, mux *http.ServeMux) *http.Server {
	hs := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "mzserver: telemetry endpoint: %v\n", err)
			os.Exit(1)
		}
	}()
	return hs
}

// shutdownTelemetry gracefully drains the telemetry endpoint: in-flight
// scrapes get shutdownDrain to finish, then the listener closes. Nil-safe
// for the no -listen case.
func shutdownTelemetry(hs *http.Server) {
	if hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownDrain)
	defer cancel()
	_ = hs.Shutdown(ctx)
}

// registerPprof mounts the runtime profiler endpoints on a mux.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// faultStatusReport is the /shard/{i}/faults payload: the configured plan, the
// latest completed round, that round's per-disk effects, and whether
// degraded admission limits are in force.
type faultStatusReport struct {
	Plan     fault.Plan      `json:"plan"`
	Round    int             `json:"round"`
	Degraded bool            `json:"degraded"`
	Limit    int             `json:"per_disk_limit"`
	Effects  []fault.Effects `json:"effects"`
}

// faultStatus assembles the /shard/{i}/faults payload from sources that are safe to
// read concurrently with the round loop: the immutable injector and the
// server's Health (never the loop's own round counter or controller
// state). Health reads this server's own series, where a lookup by name in
// a registry shared by shard-labelled servers would not.
func faultStatus(srv *server.Server) faultStatusReport {
	h := srv.Health()
	round := max(h.Round-1, 0) // effects of the last completed round
	return faultStatusReport{
		Plan:     srv.FaultPlan(),
		Round:    round,
		Degraded: h.Degraded,
		Limit:    h.PerDiskLimit,
		Effects:  srv.FaultEffectsAt(round),
	}
}

// traceReport is the default /shard/{i}/trace payload: recorder accounting, the
// frozen trigger snapshot when one is latched, and the live span history.
type traceReport struct {
	Enabled bool              `json:"enabled"`
	Stats   trace.Stats       `json:"stats"`
	Frozen  *trace.Snapshot   `json:"frozen,omitempty"`
	Spans   []trace.RoundSpan `json:"spans"`
}

// traceStatus assembles the /shard/{i}/trace payload. With ?format=chrome the spans
// re-render as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing); ?source=frozen selects the latched trigger snapshot
// instead of the live ring in either format. Everything reads through the
// recorder's own lock, so serving is safe while the round loop runs.
func traceStatus(srv *server.Server, q url.Values) any {
	trc := srv.Trace()
	frozen := q.Get("source") == "frozen"
	if q.Get("format") == "chrome" {
		spans := trc.Live()
		if frozen {
			spans = nil
			if snap, ok := trc.Frozen(); ok {
				spans = snap.Spans
			}
		}
		return trace.ChromeTrace(spans, trc.RoundLength())
	}
	rep := traceReport{Enabled: trc.Enabled(), Stats: trc.Stats()}
	if snap, ok := trc.Frozen(); ok {
		rep.Frozen = &snap
	}
	if !frozen {
		rep.Spans = trc.Live()
	}
	return rep
}

// incidentsShown is how many of a shard's newest slo_* events
// /shard/{i}/slo serves.
const incidentsShown = 128

// sloReport is the /shard/{i}/slo payload: the audit status (embedded, so
// its fields serve flat) plus the shard's newest incidents on the
// journal, oldest first. A firing target's recalibration hint is its
// newest slo_firing incident, which names the binding constraint. A
// server without a journal serves the status and no incidents.
type sloReport struct {
	slo.Status
	Incidents []journal.Event `json:"incidents"`
}

// shardSLO is shard i's /shard/{i}/slo payload.
func shardSLO(srv *server.Server, jnl *journal.Journal, i int) sloReport {
	f := journal.MatchAll()
	f.Kinds = []journal.Kind{journal.KindSLOPending, journal.KindSLOFiring, journal.KindSLOResolved}
	f.Shard, f.Limit = i, incidentsShown
	return sloReport{Status: srv.SLOStatus(), Incidents: jnl.Events(f)}
}
