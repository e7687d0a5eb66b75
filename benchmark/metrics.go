package main

import "fmt"

// metricDef describes one named metric: what it measures, which way is
// better, and — before anything is measured — which end-to-end metric on
// which workload a change to it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	Bound float64
	// E2E marks the metrics a user of the system would see. Universal ones
	// are the end_to_end list of BENCHMARK.json, which the benchmark driver
	// holds to one bound on every workload: they are meaningful (never 0)
	// everywhere and steady enough on the shared reference host for that.
	// The rest — defined on the workloads in Only, or a tail or a small mean
	// that the host's noise moves more than any bound allows (README.md,
	// "Noise") — keep their bound here for -compare and ride in
	// BENCHMARK.json's per_layer list.
	E2E       bool
	Universal bool
	Only      []string
	// Exact metrics are simulated statistics: identical for a seed and
	// run length, on any host.
	Exact bool
	Layer string
	// Moves is the prediction, written before measuring.
	Moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

var healthyAndFaulted = []string{"steady-1x4", "cluster-8x4", "faults-4x4", "scrape-1x4"}

var metricDefs = []metricDef{
	// End to end.
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, E2E: true, Universal: true, Layer: "end-to-end",
		Moves: "median of the laps' cold builds, each until the first Open is possible"},
	{Name: "frag_per_s", Unit: "1/s", Better: higher, Bound: 0.25, E2E: true, Universal: true, Layer: "end-to-end",
		Moves: "fragments served per host second of round time"},
	{Name: "round_p50_us", Unit: "us", Better: lower, Bound: 0.25, E2E: true, Universal: true, Layer: "end-to-end",
		Moves: "wall time of one round: its arrivals' Opens plus Step"},
	{Name: "round_p99_us", Unit: "us", Better: lower, Bound: 0.20, E2E: true, Layer: "end-to-end",
		Moves: "tail of the same; GC and reader stalls land here"},
	{Name: "open_ns", Unit: "ns", Better: lower, Bound: 0.15, E2E: true, Layer: "end-to-end",
		Moves: "mean host time per Open, admitted or refused"},
	{Name: "heap_live_mb", Unit: "MB", Better: lower, Bound: 0.15, E2E: true, Universal: true, Layer: "end-to-end",
		Moves: "live heap after a forced GC at the end of the measured phase"},
	{Name: "glitch_rate", Unit: "ratio", Better: lower, Bound: 0.25, E2E: true, Only: healthyAndFaulted, Exact: true, Layer: "end-to-end",
		Moves: "late+lost fragments / fragments due; a faster round that serves worse is a regression"},
	{Name: "stream_loss_rate", Unit: "ratio", Better: lower, Bound: 0.10, E2E: true, Only: []string{"faults-4x4"}, Exact: true, Layer: "end-to-end",
		Moves: "streams evicted or failed over and never resumed / streams admitted"},
	{Name: "scrape_p50_ms", Unit: "ms", Better: lower, Bound: 0.15, E2E: true, Only: []string{"scrape-1x4"}, Layer: "end-to-end",
		Moves: "light reader cycle, timed from when it was due"},
	{Name: "scrape_p95_ms", Unit: "ms", Better: lower, Bound: 0.25, E2E: true, Only: []string{"scrape-1x4"}, Layer: "end-to-end",
		Moves: "tail of the same"},
	{Name: "bundle_p50_ms", Unit: "ms", Better: lower, Bound: 0.20, E2E: true, Only: []string{"scrape-1x4"}, Layer: "end-to-end",
		Moves: "heavy reader cycle (dashboard + bundle), timed from when it was due"},

	// model
	{Name: "model.setup_solve_ms", Unit: "ms", Better: lower, Layer: "model", Moves: "setup_s everywhere"},
	{Name: "model.degrade_solve_ms", Unit: "ms", Better: lower, Layer: "model", Moves: "round_p99_us on faults-4x4"},
	{Name: "model.cold_solves", Unit: "count", Better: lower, Exact: true, Layer: "model", Moves: "setup_s everywhere"},
	{Name: "model.warm_solves", Unit: "count", Better: lower, Exact: true, Layer: "model", Moves: "setup_s everywhere"},
	{Name: "model.chain_hits", Unit: "count", Better: higher, Layer: "model", Moves: "setup_s everywhere; not exact on scrape-1x4, where the reader's BoundTightness calls read the chain too"},
	{Name: "model.search_probes", Unit: "count", Better: lower, Exact: true, Layer: "model", Moves: "setup_s everywhere; round_p99_us on faults-4x4"},

	// server
	{Name: "server.new_ms", Unit: "ms", Better: lower, Layer: "server", Moves: "setup_s"},
	{Name: "server.catalog_ms", Unit: "ms", Better: lower, Layer: "server", Moves: "setup_s"},
	{Name: "server.open_ns", Unit: "ns", Better: lower, Layer: "server", Moves: "open_ns on churn-1x4"},
	{Name: "server.open_calls", Unit: "count", Better: higher, Exact: true, Layer: "server", Moves: "open_ns on churn-1x4"},
	{Name: "server.open_rejected", Unit: "count", Better: lower, Exact: true, Layer: "server", Moves: "the admission controller working, not a failure"},
	{Name: "server.step_ns", Unit: "ns", Better: lower, Layer: "server", Moves: "frag_per_s, round_p50_us on steady-1x4"},
	{Name: "server.step_p99_ns", Unit: "ns", Better: lower, Layer: "server", Moves: "round_p99_us on steady-1x4"},
	{Name: "server.frag_per_step", Unit: "count", Better: higher, Exact: true, Layer: "server", Moves: "frag_per_s on steady-1x4"},
	{Name: "server.step_allocs", Unit: "count", Better: lower, Layer: "server", Moves: "round_p99_us via GC"},
	{Name: "server.step_bytes", Unit: "B", Better: lower, Layer: "server", Moves: "round_p99_us via GC"},
	{Name: "server.glitches", Unit: "count", Better: lower, Exact: true, Layer: "server", Moves: "glitch_rate"},
	{Name: "server.late_sweeps", Unit: "count", Better: lower, Exact: true, Layer: "server", Moves: "glitch_rate"},
	{Name: "server.completed", Unit: "count", Better: higher, Exact: true, Layer: "server", Moves: "glitch_rate"},
	{Name: "server.evicted", Unit: "count", Better: lower, Exact: true, Layer: "server", Moves: "stream_loss_rate on faults-4x4"},

	// Step cost ladder, steady-1x4 only.
	{Name: "server.step_bare_ns", Unit: "ns", Better: lower, Only: []string{"steady-1x4"}, Layer: "server", Moves: "frag_per_s on steady-1x4"},
	{Name: "trace.step_delta_ns", Unit: "ns", Better: lower, Only: []string{"steady-1x4"}, Layer: "trace", Moves: "frag_per_s on steady-1x4"},
	{Name: "slo.step_delta_ns", Unit: "ns", Better: lower, Only: []string{"steady-1x4"}, Layer: "slo", Moves: "frag_per_s on steady-1x4"},
	{Name: "journal.step_delta_ns", Unit: "ns", Better: lower, Only: []string{"steady-1x4"}, Layer: "journal", Moves: "frag_per_s on steady-1x4"},
	{Name: "history.step_delta_ns", Unit: "ns", Better: lower, Only: []string{"steady-1x4"}, Layer: "history", Moves: "frag_per_s on steady-1x4"},
	{Name: "ladder.residual_pct", Unit: "%", Better: lower, Only: []string{"steady-1x4"}, Layer: "server",
		Moves: "top rung vs server.step_ns + history.sample_ns of the traced run; should sit inside their spreads"},

	// history
	{Name: "history.sample_ns", Unit: "ns", Better: lower, Layer: "history", Moves: "round_p50_us on cluster-8x4 (8x series)"},
	{Name: "history.series", Unit: "count", Better: lower, Exact: true, Layer: "history", Moves: "round_p50_us on cluster-8x4"},
	{Name: "history.query_ms", Unit: "ms", Better: lower, Layer: "history", Moves: "scrape_p50_ms on scrape-1x4"},
	{Name: "history.dashboard_ms", Unit: "ms", Better: lower, Layer: "history", Moves: "bundle_p50_ms, round_p99_us on scrape-1x4"},
	{Name: "history.dump_ms", Unit: "ms", Better: lower, Layer: "history", Moves: "bundle_p50_ms, round_p99_us on scrape-1x4"},

	// journal
	{Name: "journal.appended", Unit: "count", Better: lower, Exact: true, Layer: "journal", Moves: "open_ns on churn-1x4"},
	{Name: "journal.overwritten", Unit: "count", Better: lower, Exact: true, Layer: "journal", Moves: "open_ns on churn-1x4"},
	{Name: "journal.events_ms", Unit: "ms", Better: lower, Layer: "journal", Moves: "bundle_p50_ms on scrape-1x4"},
	{Name: "journal.ledger_report_ms", Unit: "ms", Better: lower, Layer: "journal", Moves: "bundle_p50_ms on scrape-1x4"},

	// telemetry
	{Name: "telemetry.metrics_ms", Unit: "ms", Better: lower, Layer: "telemetry", Moves: "scrape_p50_ms"},
	{Name: "telemetry.metrics_bytes", Unit: "B", Better: lower, Layer: "telemetry", Moves: "scrape_p50_ms"},
	{Name: "telemetry.series", Unit: "count", Better: lower, Exact: true, Layer: "telemetry", Moves: "scrape_p50_ms"},

	// trace / slo
	{Name: "trace.spans", Unit: "count", Better: lower, Exact: true, Layer: "trace", Moves: "frag_per_s on steady-1x4"},
	{Name: "trace.freezes", Unit: "count", Better: lower, Exact: true, Layer: "trace", Moves: "round_p99_us on faults-4x4"},
	{Name: "slo.transitions", Unit: "count", Better: lower, Exact: true, Layer: "slo", Moves: "round_p99_us on faults-4x4"},

	// cluster
	{Name: "cluster.open_ns", Unit: "ns", Better: lower, Layer: "cluster", Moves: "open_ns on cluster-8x4"},
	{Name: "cluster.step_ns", Unit: "ns", Better: lower, Layer: "cluster", Moves: "frag_per_s, round_p50_us on cluster-8x4"},
	{Name: "cluster.shard_step_sum_ns", Unit: "ns", Better: lower, Layer: "cluster", Moves: "frag_per_s on cluster-8x4"},
	{Name: "cluster.step_self_ns", Unit: "ns", Better: lower, Layer: "cluster", Moves: "round_p50_us on cluster-8x4"},
	{Name: "cluster.parallelism", Unit: "ratio", Better: higher, Layer: "cluster", Moves: "frag_per_s on cluster-8x4"},
	{Name: "cluster.migrated", Unit: "count", Better: higher, Exact: true, Layer: "cluster", Moves: "stream_loss_rate on faults-4x4"},
	{Name: "cluster.migration_failed", Unit: "count", Better: lower, Exact: true, Layer: "cluster", Moves: "stream_loss_rate on faults-4x4"},
	{Name: "cluster.failed_over", Unit: "count", Better: lower, Exact: true, Layer: "cluster", Moves: "stream_loss_rate on faults-4x4"},
	{Name: "cluster.migrate_attempts", Unit: "count", Better: lower, Exact: true, Layer: "cluster", Moves: "round_p50_us on faults-4x4"},

	// fault
	{Name: "fault.effects_ns", Unit: "ns", Better: lower, Layer: "fault", Moves: "round_p50_us on faults-4x4"},
	{Name: "fault.faulty_rounds", Unit: "count", Better: lower, Exact: true, Layer: "fault", Moves: "round_p50_us on faults-4x4; zero on the other four"},
	{Name: "fault.retries", Unit: "count", Better: lower, Exact: true, Layer: "fault", Moves: "glitch_rate on faults-4x4; zero on the other four"},
	{Name: "fault.lost", Unit: "count", Better: lower, Exact: true, Layer: "fault", Moves: "glitch_rate on faults-4x4; zero on the other four"},

	// host runtime
	{Name: "go.gc_cycles", Unit: "count", Better: lower, Layer: "host", Moves: "round_p99_us"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: lower, Layer: "host", Moves: "round_p99_us"},
	{Name: "go.alloc_mb_per_s", Unit: "MB/s", Better: lower, Layer: "host", Moves: "round_p99_us"},
	{Name: "scrape.cycles", Unit: "count", Better: higher, Only: []string{"scrape-1x4"}, Layer: "host", Moves: "how much reading ran beside the loop"},
	{Name: "scrape.lateness_p95_ms", Unit: "ms", Better: lower, Only: []string{"scrape-1x4"}, Layer: "host", Moves: "how late the open-loop generator ran"},
	{Name: "trace_overhead_pct", Unit: "%", Better: lower, Layer: "host", Moves: "traced vs untraced mean round time over the same rounds"},
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// appliesTo reports whether the metric is defined on the workload.
func (m *metricDef) appliesTo(workload string) bool {
	if m.Only == nil {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// boundString renders the regression bound for tables ("-" when none).
func (m *metricDef) boundString() string {
	if m.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", m.Bound)
}

// traced reports whether the metric is printed by the traced invocation
// (--trace 1): everything but the universal end-to-end metrics.
func (m *metricDef) traced() bool { return !(m.E2E && m.Universal) }
