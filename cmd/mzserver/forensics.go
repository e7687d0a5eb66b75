package main

// Incident-forensics endpoints: the /timeline event journal, the /streams
// promised-vs-delivered ledger, and the one-shot /debug/bundle that
// freezes everything an incident writeup needs into a single JSON
// document.

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mzqos/internal/cluster"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
)

// timelineReport is the default /timeline payload.
type timelineReport struct {
	Enabled bool            `json:"enabled"`
	Stats   journal.Stats   `json:"stats"`
	Kinds   []string        `json:"kinds"`
	Events  []journal.Event `json:"events"`
}

// parseTimelineFilter builds a journal filter from /timeline query
// parameters: since (seq), kind (comma-separated names), shard, disk,
// stream, object, limit. Unknown kind names error so a typo doesn't
// silently match nothing.
func parseTimelineFilter(q url.Values) (journal.Filter, error) {
	f := journal.MatchAll()
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return f, err
		}
		f.SinceSeq = n
	}
	if v := q.Get("kind"); v != "" {
		for _, name := range strings.Split(v, ",") {
			k, ok := journal.KindFromString(strings.TrimSpace(name))
			if !ok {
				return f, &badKindError{name}
			}
			f.Kinds = append(f.Kinds, k)
		}
	}
	for _, dim := range []struct {
		key string
		dst *int
	}{{"shard", &f.Shard}, {"disk", &f.Disk}} {
		if v := q.Get(dim.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return f, err
			}
			*dim.dst = n
		}
	}
	if v := q.Get("stream"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return f, err
		}
		f.Stream = n
	}
	f.Object = q.Get("object")
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, err
		}
		f.Limit = n
	}
	return f, nil
}

type badKindError struct{ name string }

func (e *badKindError) Error() string { return "unknown event kind " + strconv.Quote(e.name) }

// timelineHandler serves the journal: filterable JSON by default,
// newline-delimited JSON (one event per line, for jq/grep pipelines and
// archival) with ?format=ndjson.
func timelineHandler(jnl *journal.Journal) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f, err := parseTimelineFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		events := jnl.Events(f)
		if r.URL.Query().Get("format") == "ndjson" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			for i := range events {
				line, err := json.Marshal(&events[i])
				if err != nil {
					continue
				}
				_, _ = w.Write(line)
				_, _ = w.Write([]byte{'\n'})
			}
			return
		}
		telemetry.WriteJSON(w, timelineReport{
			Enabled: jnl != nil,
			Stats:   jnl.Stats(),
			Kinds:   journal.Kinds(),
			Events:  events,
		})
	}
}

// streamsHandler serves the QoS ledger: one promised-vs-delivered record
// per stream plus the fleet-level delivered-tail summaries.
func streamsHandler(ledger *journal.Ledger) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		telemetry.WriteJSON(w, ledger.Report())
	}
}

// bundleSchema versions the /debug/bundle document.
const bundleSchema = "mzqos/bundle/v1"

// debugBundle is the one-shot incident snapshot: every observability
// surface frozen into a single document so a failing smoke run (or an
// operator mid-incident) saves one URL instead of six.
type debugBundle struct {
	Schema string         `json:"schema"`
	Kind   string         `json:"kind"` // always "cluster": every run is a coordinator
	Round  int            `json:"round"`
	Config bundleGeometry `json:"config"`

	Admission any                 `json:"admission"`
	SLO       any                 `json:"slo"`
	Report    any                 `json:"report"`
	Faults    []faultStatusReport `json:"faults"` // per shard
	Trace     []any               `json:"trace"`  // per shard, the frozen source
	Cluster   any                 `json:"cluster"`
	Migration any                 `json:"migration"`

	Timeline timelineReport `json:"timeline"`
	Streams  journal.Report `json:"streams"`
	Metrics  any            `json:"metrics"`
	// History is the embedded time-series store's downsampled dump (at
	// most 256 points per series), so a bundle saved mid-incident carries
	// the trajectory that led up to it, not just the final values.
	History any `json:"history,omitempty"`
}

// bundleGeometry is the bundle's config section: the shape of the fleet
// and the admission capacity in force at snapshot time.
type bundleGeometry struct {
	Shards   int    `json:"shards"`
	Disks    int    `json:"disks"` // per shard
	Capacity int    `json:"capacity"`
	Route    string `json:"route"`
}

// bundleHistoryPoints bounds the per-series dump embedded in a bundle.
const bundleHistoryPoints = 256

// bundleHandler assembles /debug/bundle: the payloads the mux already
// serves one by one, every shard's fault status and frozen trace, then the
// timeline, ledger, metrics and history every bundle ends with.
func bundleHandler(coord *cluster.Coordinator, srvs []*server.Server, reg *telemetry.Registry, hist *history.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		st := coord.Status()
		jnl := coord.Journal()
		b := debugBundle{
			Schema: bundleSchema,
			Kind:   "cluster",
			Round:  coord.Round(),
			Config: bundleGeometry{
				Shards:   len(srvs),
				Disks:    srvs[0].NumDisks(),
				Capacity: st.Capacity,
				Route:    coord.Route(),
			},
			Admission: admissions(coord),
			SLO:       coord.SLOStatus(),
			Report:    coord.TightnessReport(),
			Cluster:   st,
			Migration: coord.MigrationStats(),
			Timeline: timelineReport{
				Enabled: jnl != nil,
				Stats:   jnl.Stats(),
				Kinds:   journal.Kinds(),
				Events:  jnl.Events(journal.MatchAll()),
			},
			Streams: coord.QoSLedger().Report(),
			Metrics: reg.Snapshot(),
		}
		frozen := url.Values{"source": {"frozen"}}
		for _, srv := range srvs {
			b.Faults = append(b.Faults, faultStatus(srv))
			b.Trace = append(b.Trace, traceStatus(srv, frozen))
		}
		if hist != nil {
			b.History = hist.Dump(bundleHistoryPoints)
		}
		telemetry.WriteJSON(w, b)
	}
}
