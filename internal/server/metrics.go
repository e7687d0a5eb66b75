package server

import (
	"fmt"

	"mzqos/internal/engine"
	"mzqos/internal/slo"
	"mzqos/internal/sweep"
	"mzqos/internal/telemetry"
)

// Telemetry is the server's live metrics surface: counters, gauges, and
// per-disk round-time histograms registered under the documented
// mzqos_server_* names. All of it is safe to read concurrently with the
// round loop (every metric is atomic), which is what lets an HTTP
// exposition endpoint scrape a running server.
type Telemetry struct {
	reg *telemetry.Registry

	rounds      *telemetry.Counter
	fragments   *telemetry.Counter
	glitches    *telemetry.Counter
	admitted    *telemetry.Counter
	rejected    *telemetry.Counter
	completed   *telemetry.Counter
	retired     *telemetry.Counter
	active      *telemetry.Gauge
	nmax        *telemetry.Gauge
	boundLate   *telemetry.Gauge
	boundGlitch *telemetry.Gauge

	faultActive        *telemetry.Gauge
	degraded           *telemetry.Gauge
	failed             *telemetry.Gauge
	degradeTransitions *telemetry.Counter
	evictions          *telemetry.Counter

	slo   sloTelemetry
	disks []diskTelemetry
}

// sloTelemetry is the mzqos_slo_* series of the guarantee audit, indexed
// [target][window] with target 0 = late, 1 = glitch and window 0 = fast,
// 1 = slow (matching internal/slo's ordering). Registered even when the
// audit is disabled so the series are always present and simply stay 0.
type sloTelemetry struct {
	budget   [2]*telemetry.Gauge
	measured [2][2]*telemetry.Gauge
	state    [2]*telemetry.Gauge
	fired    [2]*telemetry.Counter
	resolved [2]*telemetry.Counter
}

// diskTelemetry holds one disk's series, captured once at setup so the
// sweep loop does no registry lookups.
type diskTelemetry struct {
	roundTime   *telemetry.Histogram
	lateRounds  *telemetry.Counter
	fragments   *telemetry.Counter
	glitches    *telemetry.Counter
	peakLoad    *telemetry.Gauge
	seek        *telemetry.FloatCounter
	rotation    *telemetry.FloatCounter
	transfer    *telemetry.FloatCounter
	faultRounds *telemetry.Counter
	retries     *telemetry.Counter
	lost        *telemetry.Counter
	downRounds  *telemetry.Counter
}

// newTelemetry registers the server metric set for `disks` drives and a
// round length of t seconds. With reg nil a private registry is created;
// instance labels (e.g. shard="3") are prepended to every series so
// several servers can share one registry without clobbering each other's
// counters.
func newTelemetry(reg *telemetry.Registry, instance []telemetry.Label, disks int, t float64) (*Telemetry, error) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// labels returns the instance labels plus any series-specific ones,
	// instance first so every mzqos_server_* series of one shard shares a
	// label prefix.
	labels := func(extra ...telemetry.Label) []telemetry.Label {
		if len(instance) == 0 {
			return extra
		}
		out := make([]telemetry.Label, 0, len(instance)+len(extra))
		out = append(out, instance...)
		return append(out, extra...)
	}
	tl := &Telemetry{
		reg: reg,
		rounds: reg.Counter("mzqos_server_rounds_total",
			"Scheduling rounds executed.", labels()...),
		fragments: reg.Counter("mzqos_server_fragments_total",
			"Fragments served across all disks.", labels()...),
		glitches: reg.Counter("mzqos_server_glitches_total",
			"Fragments that finished after their round deadline.", labels()...),
		admitted: reg.Counter("mzqos_server_streams_admitted_total",
			"Streams accepted by admission control.", labels()...),
		rejected: reg.Counter("mzqos_server_streams_rejected_total",
			"Streams turned away by admission control.", labels()...),
		completed: reg.Counter("mzqos_server_streams_completed_total",
			"Streams that consumed their final fragment.", labels()...),
		retired: reg.Counter("mzqos_server_streams_retired_total",
			"Streams closed or completed (retired from the active set).", labels()...),
		active: reg.Gauge("mzqos_server_streams_active",
			"Streams currently open.", labels()...),
		nmax: reg.Gauge("mzqos_server_nmax",
			"Admission limit N_max per disk (binding disk).", labels()...),
		boundLate: reg.Gauge("mzqos_server_bound_late",
			"Analytic b_late(N_max, t): Chernoff bound on a full round being late.", labels()...),
		boundGlitch: reg.Gauge("mzqos_server_bound_glitch",
			"Analytic b_glitch(N_max, t): bound on a stream glitching in one round.", labels()...),
		faultActive: reg.Gauge("mzqos_server_fault_active_disks",
			"Disks with an active fault effect in the latest round.", labels()...),
		degraded: reg.Gauge("mzqos_server_degraded",
			"1 while degraded admission limits are in force, else 0.", labels()...),
		failed: reg.Gauge("mzqos_server_failed",
			"1 while a full disk failure holds admission closed (distinct from a limit merely degraded to 0), else 0.", labels()...),
		degradeTransitions: reg.Counter("mzqos_server_degraded_transitions_total",
			"Entries into and exits from degraded mode.", labels()...),
		evictions: reg.Counter("mzqos_server_fault_evictions_total",
			"Streams shed by the degraded-mode controller.", labels()...),
	}
	windows := [2]string{"fast", "slow"}
	for i := 0; i < 2; i++ {
		target := telemetry.L("target", slo.TargetName(i))
		tl.slo.budget[i] = reg.Gauge("mzqos_slo_budget",
			"Error budget per target: the analytic bound (b_late or b_glitch) at the admission limit in force.",
			labels(target)...)
		tl.slo.state[i] = reg.Gauge("mzqos_slo_alert_state",
			"Alert state ordinal per target: 0 inactive, 1 pending, 2 firing, 3 resolved.",
			labels(target)...)
		tl.slo.fired[i] = reg.Counter("mzqos_slo_alerts_fired_total",
			"Alerts that reached Firing (both windows rejecting the budget at slo.Alpha).",
			labels(target)...)
		tl.slo.resolved[i] = reg.Counter("mzqos_slo_alerts_resolved_total",
			"Fired alerts that resolved once both windows' rates fell below the budget.",
			labels(target)...)
		for w := 0; w < 2; w++ {
			wl := telemetry.L("window", windows[w])
			tl.slo.measured[i][w] = reg.Gauge("mzqos_slo_measured",
				"Windowed measured rate per target: P[T_N > t] over loaded rounds (late) or glitches per fragment (glitch).",
				labels(target, wl)...)
		}
	}
	for d := 0; d < disks; d++ {
		dl := telemetry.L("disk", fmt.Sprintf("%d", d))
		lbl := labels(dl)
		bounds, err := telemetry.RoundTimeBuckets(t)
		if err != nil {
			return nil, err
		}
		hist, err := reg.Histogram("mzqos_server_round_time_seconds",
			"Total SCAN sweep service time T_N per loaded round, log-bucketed around the round length.",
			bounds, lbl...)
		if err != nil {
			return nil, err
		}
		tl.disks = append(tl.disks, diskTelemetry{
			roundTime: hist,
			lateRounds: reg.Counter("mzqos_server_late_rounds_total",
				"Loaded rounds whose sweep exceeded the round length (the event bounded by b_late).", lbl...),
			fragments: reg.Counter("mzqos_server_disk_fragments_total",
				"Fragments served by this disk.", lbl...),
			glitches: reg.Counter("mzqos_server_disk_glitches_total",
				"Late fragments on this disk.", lbl...),
			peakLoad: reg.Gauge("mzqos_server_peak_round_load",
				"Largest per-round request count this disk has served.", lbl...),
			seek: reg.FloatCounter("mzqos_server_phase_seconds_total",
				"Accumulated sweep service seconds by phase.", labels(dl, telemetry.L("phase", "seek"))...),
			rotation: reg.FloatCounter("mzqos_server_phase_seconds_total",
				"Accumulated sweep service seconds by phase.", labels(dl, telemetry.L("phase", "rotation"))...),
			transfer: reg.FloatCounter("mzqos_server_phase_seconds_total",
				"Accumulated sweep service seconds by phase.", labels(dl, telemetry.L("phase", "transfer"))...),
			faultRounds: reg.Counter("mzqos_server_fault_rounds_total",
				"Rounds in which a fault effect was active on this disk.", lbl...),
			retries: reg.Counter("mzqos_server_fault_retries_total",
				"Extra revolutions paid re-reading after transient read errors.", lbl...),
			lost: reg.Counter("mzqos_server_lost_fragments_total",
				"Fragments never delivered: retries exhausted or the disk was down.", lbl...),
			downRounds: reg.Counter("mzqos_server_down_rounds_total",
				"Loaded rounds in which this disk was fully failed.", lbl...),
		})
	}
	return tl, nil
}

// Registry exposes the underlying registry (for the exposition endpoint
// and for adopting further series, e.g. the model's solver counters).
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Telemetry returns the server's metrics surface. Safe to call and use
// concurrently with the round loop.
func (s *Server) Telemetry() *Telemetry { return s.tel }

// observeSweep records one disk's finished sweep into the metric set and
// the SLO audit's window estimators, and returns the round time it
// recorded: Busy, or for a sweep that never happened
// because the disk was down the sentinel sweep.DownRoundLengths·t — the
// honest reading of "the deadline was missed by the whole round". Called
// once per loaded disk per round from Step.
func (s *Server) observeSweep(d int, dr *DiskRoundReport) (observed float64) {
	dt := &s.tel.disks[d]
	observed = dr.Busy
	if dr.Down {
		observed = sweep.DownRoundLengths * s.cfg.RoundLength
		dt.downRounds.Inc()
	}
	dt.roundTime.Observe(observed)
	late := observed > s.cfg.RoundLength
	if late {
		dt.lateRounds.Inc()
	}
	s.sloAud.ObserveDisk(d, late, dr.Requests, dr.Late+dr.Lost)
	dt.fragments.Add(int64(dr.Requests))
	dt.glitches.Add(int64(dr.Late + dr.Lost))
	dt.peakLoad.SetMax(float64(dr.Requests))
	dt.seek.Add(dr.Seek)
	dt.rotation.Add(dr.Rotation)
	dt.transfer.Add(dr.Transfer)
	dt.retries.Add(int64(dr.Retries))
	dt.lost.Add(int64(dr.Lost))
	s.tel.fragments.Add(int64(dr.Requests))
	return observed
}

// The bound-tightness vocabulary moved to internal/engine so the cluster
// coordinator can aggregate per-shard reports (Coordinator.
// TightnessReport) without importing a concrete engine; the historical
// server names remain as aliases.
type (
	// DiskTightness compares one disk's measured service quality against
	// the analytic bounds it was admitted under.
	DiskTightness = engine.DiskTightness
	// TightnessReport is the server-wide bound-vs-measured comparison.
	TightnessReport = engine.TightnessReport
)

// BoundTightness builds the live bound-vs-measured report: for each disk
// the empirical late-round tail and glitch rate beside the analytic
// b_late/b_glitch evaluated at the disk's peak observed load. Safe to
// call concurrently with the round loop (metrics are atomic; the limit
// and the model set come from one load of the limits in force).
func (s *Server) BoundTightness() (TightnessReport, error) {
	lim := s.lim.Load()
	rep := TightnessReport{RoundLength: s.cfg.RoundLength, PerDiskLimit: lim.nmax}
	for d, dt := range s.tel.disks {
		hv := dt.roundTime.SnapshotValues()
		row := DiskTightness{
			Disk:     d,
			Geometry: s.geoms[d].Name,
			Sweeps:   hv.Count,
			Requests: dt.fragments.Value(),
			Glitches: dt.glitches.Value(),
			PeakLoad: int(dt.peakLoad.Value()),
		}
		row.EmpiricalPLate = hv.TailAbove(s.cfg.RoundLength)
		row.TP50 = hv.Quantile(0.5)
		row.TP99 = hv.Quantile(0.99)
		row.TP999 = hv.Quantile(0.999)
		if row.Requests > 0 {
			row.EmpiricalGlitchRate = float64(row.Glitches) / float64(row.Requests)
		}
		if row.PeakLoad > 0 {
			bl, err := lim.mdls[d].LateBound(row.PeakLoad)
			if err != nil {
				return TightnessReport{}, err
			}
			bg, err := lim.mdls[d].GlitchBound(row.PeakLoad)
			if err != nil {
				return TightnessReport{}, err
			}
			row.BoundPLate, row.BoundGlitch = bl, bg
		}
		rep.Disks = append(rep.Disks, row)
	}
	return rep, nil
}
