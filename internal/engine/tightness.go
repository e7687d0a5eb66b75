package engine

// Bound-tightness reporting: the offline bound-vs-measured comparison an
// engine can offer on top of the live SLO audit. The types live here —
// rather than in internal/server, where the report originated — so the
// cluster layer can aggregate per-shard reports without importing a
// concrete engine; internal/server keeps its historical names as
// aliases.

// DiskTightness compares one disk's measured service quality against the
// analytic bounds it was admitted under: the paper's guarantee, checked
// live. Bounds are evaluated at the disk's peak observed per-round load,
// which dominates every lighter round because b_late and b_glitch are
// non-decreasing in N.
type DiskTightness struct {
	// Disk indexes the drive; Geometry names its profile.
	Disk     int    `json:"disk"`
	Geometry string `json:"geometry"`
	// Sweeps is the number of loaded rounds measured (the histogram
	// population); Requests and Glitches are fragment totals.
	Sweeps   int64 `json:"sweeps"`
	Requests int64 `json:"requests"`
	Glitches int64 `json:"glitches"`
	// PeakLoad is the largest per-round request count observed.
	PeakLoad int `json:"peak_load"`
	// EmpiricalPLate is the measured P̂[T_N > t] over loaded rounds;
	// BoundPLate is the analytic b_late(PeakLoad, t) it must stay under.
	EmpiricalPLate float64 `json:"empirical_p_late"`
	BoundPLate     float64 `json:"bound_p_late"`
	// EmpiricalGlitchRate is glitches/requests; BoundGlitch is the
	// analytic b_glitch(PeakLoad, t) (eq. 3.3.3).
	EmpiricalGlitchRate float64 `json:"empirical_glitch_rate"`
	BoundGlitch         float64 `json:"bound_glitch"`
	// TP50/TP99/TP999 are bucket-resolved quantiles of the measured round
	// service time T_N in seconds — where the mass of the T_N distribution
	// sits below the tail the bounds control. Zero when no rounds were
	// measured.
	TP50  float64 `json:"t_p50_s"`
	TP99  float64 `json:"t_p99_s"`
	TP999 float64 `json:"t_p999_s"`
}

// WithinBounds reports whether both measured rates respect their bounds.
func (d DiskTightness) WithinBounds() bool {
	return d.EmpiricalPLate <= d.BoundPLate && d.EmpiricalGlitchRate <= d.BoundGlitch
}

// TightnessReport is the engine-wide bound-vs-measured comparison.
type TightnessReport struct {
	// RoundLength is the deadline t the tail is measured against.
	RoundLength float64 `json:"round_length_s"`
	// PerDiskLimit is the admission limit N_max in force.
	PerDiskLimit int `json:"per_disk_limit"`
	// Disks holds one comparison per drive.
	Disks []DiskTightness `json:"disks"`
}

// WithinBounds reports whether every disk respects its bounds.
func (r TightnessReport) WithinBounds() bool {
	for _, d := range r.Disks {
		if !d.WithinBounds() {
			return false
		}
	}
	return true
}

// TightnessReporter is the optional engine capability behind cluster
// tightness aggregation: the server implements it, and a decorator that
// wraps a shard's engine forwards it or leaves the shard unaudited.
// Implementations must be safe to call concurrently with the engine
// loop, like Health.
type TightnessReporter interface {
	BoundTightness() (TightnessReport, error)
}
