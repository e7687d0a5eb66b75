package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
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

// surfaces is what differs between the single-server and the cluster
// mux; buildMux registers everything else once, for both.
type surfaces struct {
	// title heads the dashboard; roundLength scales its time axis.
	title       string
	roundLength float64
	// report, admission and slo are the /report, /admission and /slo
	// payloads, which /debug/bundle embeds as well.
	report    func() (any, error)
	admission func() any
	slo       func() any
	// extra holds the mode-specific endpoints by path.
	extra map[string]http.HandlerFunc
	// bundle fills the mode-specific sections of a /debug/bundle.
	bundle func(*debugBundle)
	// healthy is the /healthz readiness check.
	healthy func() (cause string, ok bool)
	jnl     *journal.Journal
	ledger  *journal.Ledger
}

// buildMux wires the observability endpoints both modes serve:
//
//	/metrics     Prometheus text exposition (server, cluster and model
//	             series; cluster shards are told apart by the shard label)
//	/report      the live bound-tightness report as JSON (per shard in
//	             cluster mode)
//	/admission   why streams were admitted or turned away (see the two
//	             callers for what each mode reports)
//	/slo         the guarantee audit: windowed bound-vs-measured tail
//	             estimates, burn rates, alert states (rolled up by capacity
//	             across shards in cluster mode)
//	/timeline    the event journal: sequence-ordered admit/reject/evict/
//	             fault/SLO/freeze/migrate events, filterable by since-seq,
//	             kind, shard, disk, stream; ?format=ndjson for line-JSON
//	/streams     the QoS ledger: promised-vs-delivered record per stream
//	             with fleet-level delivered-tail percentiles
//	/debug/bundle one-shot incident snapshot: timeline + metrics + slo +
//	             admission + the mode's own sections + history in one JSON
//	             document
//	/query       the embedded metrics history: windowed trajectories of any
//	             registry series (?series=&since_round=&step=&agg=), JSON or
//	             NDJSON — only when hist is non-nil
//	/dashboard   the self-contained bound-tightness dashboard (inline SVG,
//	             no external assets) — only when hist is non-nil
//	/healthz     readiness probe: 200 while admission can make progress,
//	             503 with a JSON cause once it is failure-closed
//	/debug/pprof runtime profiling, only when withPprof is set
//
// plus the mode's own endpoints from s.extra. Everything served here reads
// atomic metrics or lock-guarded snapshots, so scraping is safe while the
// round loop runs.
func buildMux(reg *telemetry.Registry, hist *history.Store, withPprof bool, s surfaces) *http.ServeMux {
	model.RegisterTelemetry(reg)
	telemetry.RegisterRuntimeMetrics(reg)

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		rep, err := s.report()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/admission", jsonHandler(s.admission))
	mux.HandleFunc("/slo", jsonHandler(s.slo))
	for path, h := range s.extra {
		mux.HandleFunc(path, h)
	}
	mux.HandleFunc("/timeline", timelineHandler(s.jnl))
	mux.HandleFunc("/streams", streamsHandler(s.ledger))
	mux.HandleFunc("/debug/bundle", bundleHandler(reg, hist, s))
	if hist != nil {
		mux.HandleFunc("/query", hist.QueryHandler())
		mux.HandleFunc("/dashboard", hist.DashboardHandler(history.DashboardConfig{
			Title:       s.title,
			RoundLength: s.roundLength,
		}))
	}
	mux.HandleFunc("/healthz", healthzHandler(s.healthy))
	if withPprof {
		registerPprof(mux)
	}
	return mux
}

// jsonHandler serves whatever payload returns as indented JSON.
func jsonHandler(payload func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, payload()) }
}

// newTelemetryMux wires the single-server endpoints: everything buildMux
// serves, with
//
//	/admission   the admission-explanation report: per-disk decision
//	             traces (binding k, bound, θ, slack), class occupancy,
//	             recent rejections and N_max evaluations
//	/slo         also lists any active recalibration hints
//
// and three endpoints of its own:
//
//	/sweeps      recent per-sweep phase breakdowns as JSON: the flight
//	             recorder's spans without their requests
//	/faults      the fault plan and the latest round's per-disk effects
//	/trace       the flight recorder: live span history or the frozen
//	             trigger snapshot as JSON; ?format=chrome re-renders
//	             either as Chrome trace-event JSON for Perfetto
func newTelemetryMux(srv *server.Server, hist *history.Store, withPprof bool) *http.ServeMux {
	reg := srv.Telemetry().Registry()
	return buildMux(reg, hist, withPprof, surfaces{
		title:       "mzqos server",
		roundLength: srv.RoundLength(),
		report:      func() (any, error) { return srv.BoundTightness() },
		admission:   func() any { return srv.AdmissionStatus() },
		slo:         func() any { return sloReport{Status: srv.SLOStatus(), Hints: srv.SLOHints()} },
		extra: map[string]http.HandlerFunc{
			"/sweeps": jsonHandler(func() any { return recentSweeps(srv.Trace()) }),
			"/faults": jsonHandler(func() any { return faultStatus(srv) }),
			"/trace": func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, traceStatus(srv, r.URL.Query()))
			},
		},
		bundle: func(b *debugBundle) {
			b.Kind = "server"
			b.Round = int(mustCounter(reg, "mzqos_server_rounds_total"))
			b.Config = bundleGeometry{
				Disks:        srv.NumDisks(),
				PerDiskLimit: srv.PerDiskLimit(),
				Capacity:     srv.Capacity(),
				Degraded:     srv.Degraded(),
			}
			b.Faults = faultStatus(srv)
			b.Trace = traceStatus(srv, url.Values{"source": {"frozen"}})
		},
		healthy: func() (string, bool) {
			if srv.Health().Failed {
				return "admission failure-closed (disk failure)", false
			}
			return "", true
		},
		jnl:    srv.Journal(),
		ledger: srv.QoSLedger(),
	})
}

// sweepEvent is one /sweeps row: a SCAN sweep broken down into the three
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
// /sweeps rows, oldest first. It follows the recorder: -trace-spans sizes
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

// healthzHandler turns a readiness check into the /healthz endpoint:
// 200 {"status":"ok"} while the process can admit work, 503 with the
// cause once it cannot. Orchestrators and the smoke scripts key on the
// status code; the cause is for humans reading the body.
func healthzHandler(check func() (cause string, ok bool)) http.HandlerFunc {
	type health struct {
		Status string `json:"status"`
		Cause  string `json:"cause,omitempty"`
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		cause, ok := check()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(health{Status: "unavailable", Cause: cause})
			return
		}
		_ = json.NewEncoder(w).Encode(health{Status: "ok"})
	}
}

// clusterHealthCheck is the cluster /healthz readiness predicate: the
// cluster is unavailable only when no shard can admit anything — every
// shard failure-closed, or every shard degraded to zero capacity.
func clusterHealthCheck(coord *cluster.Coordinator) func() (string, bool) {
	return func() (string, bool) {
		st := coord.Status()
		if len(st.Shards) == 0 {
			return "no shards", false
		}
		allFailed, allZero := true, true
		for _, row := range st.Shards {
			if !row.Health.Failed {
				allFailed = false
			}
			if row.Health.Capacity > 0 {
				allZero = false
			}
		}
		switch {
		case allFailed:
			return "every shard failure-closed (disk failure)", false
		case allZero:
			return "every shard degraded to zero capacity", false
		}
		return "", true
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

// faultStatusReport is the /faults payload: the configured plan, the
// latest completed round, that round's per-disk effects, and whether
// degraded admission limits are in force.
type faultStatusReport struct {
	Plan     fault.Plan      `json:"plan"`
	Round    int             `json:"round"`
	Degraded bool            `json:"degraded"`
	Limit    int             `json:"per_disk_limit"`
	Effects  []fault.Effects `json:"effects"`
}

// faultStatus assembles the /faults payload from sources that are safe to
// read concurrently with the round loop: the immutable injector and the
// atomic metric registry (never the loop's own round counter or
// controller state).
func faultStatus(srv *server.Server) faultStatusReport {
	snap := srv.Telemetry().Snapshot()
	rounds, _ := snap.Counter("mzqos_server_rounds_total")
	degraded, _ := snap.Gauge("mzqos_server_degraded")
	limit, _ := snap.Gauge("mzqos_server_nmax")
	round := int(rounds)
	if round > 0 {
		round-- // effects of the last completed round
	}
	return faultStatusReport{
		Plan:     srv.FaultPlan(),
		Round:    round,
		Degraded: degraded != 0,
		Limit:    int(limit),
		Effects:  srv.FaultEffectsAt(round),
	}
}

// traceReport is the default /trace payload: recorder accounting, the
// frozen trigger snapshot when one is latched, and the live span history.
type traceReport struct {
	Enabled bool              `json:"enabled"`
	Stats   trace.Stats       `json:"stats"`
	Frozen  *trace.Snapshot   `json:"frozen,omitempty"`
	Spans   []trace.RoundSpan `json:"spans"`
}

// traceStatus assembles the /trace payload. With ?format=chrome the spans
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

// sloReport is the /slo payload: the audit status (embedded, so its
// fields serve flat) plus the active recalibration hints — one per
// target currently Firing, empty while the guarantee holds.
type sloReport struct {
	slo.Status
	Hints []server.SLOHint `json:"hints,omitempty"`
}

// writeJSON answers with v, or with 500 and the encoder's message when v
// has no JSON rendering (a gauge at NaN or ±Inf in a snapshot or a history
// dump): the body is encoded before the status goes out, so no answer is
// ever 200 with part of one. internal/history's /query follows the same
// rule.
func writeJSON(w http.ResponseWriter, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(body.Bytes()) // the client hanging up is its own report
}
