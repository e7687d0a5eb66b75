package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mz_requests_total", "Requests served.")
	g := reg.Gauge("mz_temp", "", L("disk", "0"))
	h, err := reg.Histogram("mz_lat", "Latency.", []float64{0.5, 1}, L("disk", "0"))
	if err != nil {
		t.Fatal(err)
	}
	c.Add(42)
	g.Set(1.5)
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP mz_requests_total Requests served.
# TYPE mz_requests_total counter
mz_requests_total 42
# TYPE mz_temp gauge
mz_temp{disk="0"} 1.5
# HELP mz_lat Latency.
# TYPE mz_lat histogram
mz_lat_bucket{disk="0",le="0.5"} 1
mz_lat_bucket{disk="0",le="1"} 2
mz_lat_bucket{disk="0",le="+Inf"} 3
mz_lat_sum{disk="0"} 3
mz_lat_count{disk="0"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusHeaderOncePerName(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("multi_total", "Split by disk.", L("disk", "0")).Inc()
	reg.Counter("multi_total", "Split by disk.", L("disk", "1")).Add(2)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# TYPE multi_total counter"); n != 1 {
		t.Fatalf("TYPE header appears %d times, want 1:\n%s", n, out)
	}
	for _, line := range []string{`multi_total{disk="0"} 1`, `multi_total{disk="1"} 2`} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

// TestWritePrometheusHostileLabels pins the escaping contract for label
// values containing backslashes, quotes, and newlines: each must be
// escaped exactly once (\\, \", \n). The %q formatter that used to render
// the pair escaped promEscape's output a second time, turning `a\b` into
// `a\\\\b` on the wire.
func TestWritePrometheusHostileLabels(t *testing.T) {
	hostile := "back\\slash \"quote\"\nnewline"
	reg := NewRegistry()
	reg.Counter("hostile_total", "", L("path", hostile)).Inc()
	h, err := reg.Histogram("hostile_lat", "", []float64{1}, L("path", hostile))
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	escaped := `back\\slash \"quote\"\nnewline`
	for _, line := range []string{
		`hostile_total{path="` + escaped + `"} 1`,
		`hostile_lat_bucket{path="` + escaped + `",le="1"} 1`,
		`hostile_lat_bucket{path="` + escaped + `",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}

	// Round trip: undoing the text-format escapes must recover the
	// original value exactly (i.e. no double escaping survived).
	unescape := strings.NewReplacer(`\\`, "\\", `\"`, `"`, `\n`, "\n")
	if got := unescape.Replace(escaped); got != hostile {
		t.Fatalf("unescaped value %q != original %q", got, hostile)
	}
	start := strings.Index(out, `hostile_total{path="`)
	if start < 0 {
		t.Fatalf("series not found:\n%s", out)
	}
	rest := out[start+len(`hostile_total{path="`):]
	end := strings.Index(rest, `"} `)
	if end < 0 {
		t.Fatalf("label value not terminated:\n%s", out)
	}
	if got := unescape.Replace(rest[:end]); got != hostile {
		t.Fatalf("wire value round-trips to %q, want %q", got, hostile)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total", "").Inc()
	rec := httptest.NewRecorder()
	reg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	if !strings.Contains(rec.Body.String(), "probe_total 1") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

func TestSnapshotMarshals(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(7)
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := counterValue(snap, "c_total"); !ok || v != 7 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
}

// TestWritePrometheusGroupsInterleavedNames covers the shared multi-shard
// registry shape: two instances registering the same metric names with
// distinct instance labels, interleaved with other names. The exposition
// must keep every metric name's series contiguous under one header.
func TestWritePrometheusGroupsInterleavedNames(t *testing.T) {
	reg := NewRegistry()
	// Shard 0 registers rounds then streams; shard 1 repeats the pair —
	// registration order interleaves the two names.
	reg.Counter("grp_rounds_total", "rounds", L("shard", "0")).Inc()
	reg.Gauge("grp_streams", "streams", L("shard", "0")).Set(5)
	reg.Counter("grp_rounds_total", "rounds", L("shard", "1")).Add(2)
	reg.Gauge("grp_streams", "streams", L("shard", "1")).Set(7)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "# HELP grp_rounds_total rounds\n" +
		"# TYPE grp_rounds_total counter\n" +
		"grp_rounds_total{shard=\"0\"} 1\n" +
		"grp_rounds_total{shard=\"1\"} 2\n" +
		"# HELP grp_streams streams\n" +
		"# TYPE grp_streams gauge\n" +
		"grp_streams{shard=\"0\"} 5\n" +
		"grp_streams{shard=\"1\"} 7\n"
	if out != want {
		t.Fatalf("exposition not grouped by name:\ngot:\n%s\nwant:\n%s", out, want)
	}
}
