package model

import "mzqos/internal/telemetry"

// Package-wide solver telemetry, the one piece of mutable state this
// repository keeps per process rather than per server. The counters are
// summed over every Model instance because what they answer — how often
// the admission path hits the memoized bound chain, how many Chernoff
// solves ran warm-started versus cold, how many chain reads the admission
// walks spent — is a property of the running process, and both readers
// mean exactly that: benchmark/ brackets its traced run with Telemetry()
// and every registry (mzserver's, the benchmark's) adopts the same
// counters with RegisterTelemetry. Counting is a single atomic add per
// event, negligible next to the solves themselves.
var tel struct {
	chainHits       telemetry.Counter // bound reads served by the published chain
	chainExtensions telemetry.Counter // reads that had to extend the chain
	warmSolves      telemetry.Counter // Chernoff solves warm-started from a θ hint
	coldSolves      telemetry.Counter // Chernoff solves from a full-interval search
	searchProbes    telemetry.Counter // quantities read in N_max walks

	admissionDecisions telemetry.Counter // N_max walks completed
}

// TelemetrySnapshot reports the process-wide solver counters.
type TelemetrySnapshot struct {
	// ChainHits counts bound reads answered lock-free from the published
	// chain; ChainExtensions counts reads that had to grow it.
	ChainHits, ChainExtensions int64
	// WarmSolves and ColdSolves split the Chernoff minimizations by
	// whether they were warm-started from a neighbouring θ.
	WarmSolves, ColdSolves int64
	// SearchProbes counts the stream counts N_max walks read: one per n
	// from 1 to the binding k.
	SearchProbes int64
	// AdmissionDecisions counts the N_max walks completed: every
	// ExplainNMax call (NMaxFor's, NMaxLate's and NMaxError's included),
	// every ExplainNMaxWith call and every GSS group count.
	AdmissionDecisions int64
}

// CacheHitRatio returns ChainHits/(ChainHits+ChainExtensions), the
// fraction of bound reads that never took the extension lock (0 when no
// reads have happened).
func (t TelemetrySnapshot) CacheHitRatio() float64 {
	total := t.ChainHits + t.ChainExtensions
	if total == 0 {
		return 0
	}
	return float64(t.ChainHits) / float64(total)
}

// Telemetry returns the current solver counters.
func Telemetry() TelemetrySnapshot {
	return TelemetrySnapshot{
		ChainHits:       tel.chainHits.Value(),
		ChainExtensions: tel.chainExtensions.Value(),
		WarmSolves:      tel.warmSolves.Value(),
		ColdSolves:      tel.coldSolves.Value(),
		SearchProbes:    tel.searchProbes.Value(),

		AdmissionDecisions: tel.admissionDecisions.Value(),
	}
}

// RegisterTelemetry adopts the solver counters into a registry under the
// documented mzqos_model_* names, so an exposition endpoint serves them
// alongside server metrics. Safe to call more than once per registry.
func RegisterTelemetry(reg *telemetry.Registry) {
	reg.AdoptCounter("mzqos_model_chain_hits_total",
		"Bound reads served lock-free from the memoized b_late chain.", &tel.chainHits)
	reg.AdoptCounter("mzqos_model_chain_extensions_total",
		"Bound reads that extended the memoized b_late chain.", &tel.chainExtensions)
	reg.AdoptCounter("mzqos_model_chernoff_solves_total",
		"Chernoff minimizations by start mode.", &tel.warmSolves, telemetry.L("mode", "warm"))
	reg.AdoptCounter("mzqos_model_chernoff_solves_total",
		"Chernoff minimizations by start mode.", &tel.coldSolves, telemetry.L("mode", "cold"))
	reg.AdoptCounter("mzqos_model_search_probes_total",
		"Bound reads spent inside N_max admission walks.", &tel.searchProbes)
	reg.AdoptCounter("mzqos_model_admission_decisions_total",
		"N_max evaluations explained.", &tel.admissionDecisions)
}
