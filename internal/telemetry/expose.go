package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers once per
// metric name, histogram series as cumulative _bucket{le=...} plus _sum
// and _count. Series are grouped by metric name in first-registration
// order — a shared multi-shard registry interleaves each shard's
// registrations, and the text format wants one contiguous block per
// metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runScrapeHooks()
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()

	// Stable grouping: order of first appearance per name, registration
	// order within a name.
	nameRank := make(map[string]int)
	for _, e := range entries {
		if _, ok := nameRank[e.name]; !ok {
			nameRank[e.name] = len(nameRank)
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return nameRank[entries[i].name] < nameRank[entries[j].name]
	})

	bw := bufio.NewWriter(w)
	seenHeader := make(map[string]bool)
	for _, e := range entries {
		if !seenHeader[e.name] {
			seenHeader[e.name] = true
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " "))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, promType(e.kind))
		}
		switch e.kind {
		case KindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", e.name, promLabels(e.labels, "", 0), e.c.Value())
		case KindGauge:
			fmt.Fprintf(bw, "%s%s %s\n", e.name, promLabels(e.labels, "", 0), promFloat(e.g.Value()))
		case KindFloatCounter:
			fmt.Fprintf(bw, "%s%s %s\n", e.name, promLabels(e.labels, "", 0), promFloat(e.fc.Value()))
		case KindHistogram:
			v := e.h.SnapshotValues()
			var cum int64
			for i, b := range v.Bounds {
				cum += v.Counts[i]
				fmt.Fprintf(bw, "%s_bucket%s %d\n", e.name, promLabels(e.labels, "le", b), cum)
			}
			cum += v.Counts[len(v.Bounds)]
			fmt.Fprintf(bw, "%s_bucket%s %d\n", e.name, promLabelsInf(e.labels), cum)
			fmt.Fprintf(bw, "%s_sum%s %s\n", e.name, promLabels(e.labels, "", 0), promFloat(v.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", e.name, promLabels(e.labels, "", 0), cum)
		}
	}
	return bw.Flush()
}

func promType(k Kind) string {
	switch k {
	case KindCounter, KindFloatCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promFloat renders a float the way Prometheus clients do.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promEscape escapes a label value for the text format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders {k="v",...}; with leKey non-empty an le="bound" pair
// is appended (histogram buckets). Empty label sets render as "".
func promLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// promEscape already produced text-format escapes; %q would
		// escape the backslashes a second time.
		fmt.Fprintf(&b, `%s="%s"`, l.Key, promEscape(l.Value))
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, leKey, promFloat(le))
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsInf renders the +Inf bucket label set.
func promLabelsInf(labels []Label) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, promEscape(l.Value))
	}
	if len(labels) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

// MetricsHandler returns an http.Handler serving the registry in the
// Prometheus text format (the mzserver /metrics endpoint).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// WriteJSON answers with v, indented, or with 500 and the encoder's message
// when v has no JSON rendering (a NaN or ±Inf gauge or history point): the
// body is encoded before the status goes out, so no answer is ever 200 with
// part of one. Every JSON endpoint of the program answers through it.
func WriteJSON(w http.ResponseWriter, v any) {
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
