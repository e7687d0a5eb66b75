// Package mzqos provides stochastic service guarantees for continuous data
// on multi-zone disks, reproducing Nerjes, Muth & Weikum (PODS 1997).
//
// A continuous-media server schedules disk service in rounds; mzqos
// predicts, analytically, the probability that a round overruns
// (p_late), the probability that a stream sees a glitch in one round, and
// the probability that a stream of M rounds suffers at least g glitches
// (p_error). From these it derives the maximum admissible number of
// concurrent streams per disk under a stochastic quality-of-service
// guarantee, accounting for SCAN disk scheduling, variable-bit-rate
// fragment sizes, and the zone-dependent transfer rates of multi-zone
// disks.
//
// Quick start:
//
//	m, err := mzqos.NewModel(mzqos.ModelConfig{
//		Disk:        mzqos.QuantumViking21(),
//		Sizes:       mzqos.MustGammaSizes(200*mzqos.KB, 100*mzqos.KB),
//		RoundLength: 1.0,
//	})
//	nmax, err := m.NMaxFor(mzqos.Guarantee{Threshold: 0.01})
//
// The subpackages expose, via this facade:
//
//   - the analytic model and admission tables (internal/model),
//   - multi-zone disk geometry and profiles (internal/disk),
//   - VBR workload models and an MPEG-like trace generator
//     (internal/workload),
//   - a detailed Monte-Carlo simulator for validation (internal/sim),
//   - a runnable striped server with admission control (internal/server),
//   - a sharded cluster coordinator with per-shard admission
//     (internal/cluster) over the shared round-engine contract
//     (internal/engine).
package mzqos

import (
	"math/rand/v2"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/sim"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// KB is the paper's size unit (decimal kilobytes).
const KB = workload.KB

// Core model types.
type (
	// Model is the paper's analytic service-quality model (§3). It is
	// safe for unlimited concurrent use: memoized bound reads are
	// lock-free snapshots and admission walks on a shared Model return
	// values bit-identical to a serial run.
	Model = model.Model
	// ModelConfig configures a Model.
	ModelConfig = model.Config
	// Guarantee is a stochastic QoS target (per-round or per-stream).
	Guarantee = model.Guarantee
	// Table is a precomputed admission lookup table (§5).
	Table = model.Table
	// TableEntry is one admission table row.
	TableEntry = model.TableEntry
	// WorstCaseSpec parameterizes the deterministic baseline (eq. 4.1).
	WorstCaseSpec = model.WorstCaseSpec
	// ApproxErrorReport quantifies the Gamma approximation error (§3.2).
	ApproxErrorReport = model.ApproxErrorReport
)

// Disk geometry types.
type (
	// Geometry describes a (multi-zone) disk drive.
	Geometry = disk.Geometry
	// Zone is one group of equal-capacity tracks.
	Zone = disk.Zone
	// SeekCurve is the two-regime seek-time function.
	SeekCurve = disk.SeekCurve
)

// Workload types.
type (
	// SizeModel is a named fragment-size distribution.
	SizeModel = workload.SizeModel
	// TraceConfig parameterizes the synthetic MPEG-like VBR generator.
	TraceConfig = workload.TraceConfig
)

// Simulation types.
type (
	// SimConfig configures the detailed round simulator (§4).
	SimConfig = sim.Config
	// Estimate is a Monte-Carlo estimate with a Wilson interval.
	Estimate = sim.Estimate
)

// Server types.
type (
	// Server is a striped continuous-media server with admission control.
	Server = server.Server
	// ServerConfig configures a Server.
	ServerConfig = server.Config
	// StreamID identifies an open stream.
	StreamID = server.StreamID
	// StreamStats reports the service quality one stream experienced.
	StreamStats = server.StreamStats
	// RunSummary aggregates a multi-round server execution.
	RunSummary = server.RunSummary
)

// Cluster types (see README "Cluster serving" and DESIGN.md §7).
type (
	// Engine is the round-engine contract a cluster shard satisfies;
	// *Server implements it, and decorators wrap it.
	Engine = engine.Engine
	// EngineHealth is one shard's cached health row: active streams,
	// per-disk limit, capacity, round, degraded flag.
	EngineHealth = engine.Health
	// Cluster coordinates S shards: placement, routing, and cluster-wide
	// admission against each shard's D·N_max in its cached health view.
	Cluster = cluster.Coordinator
	// ClusterConfig configures a Cluster.
	ClusterConfig = cluster.Config
	// ClusterHandle identifies an open stream by (shard, stream).
	ClusterHandle = cluster.Handle
	// ClusterStatus is the cluster-wide health + placement summary the
	// mzserver /cluster endpoint serves.
	ClusterStatus = cluster.Status
	// ClusterMigrationStats counts eviction-to-migration and failover
	// outcomes (see README "Cluster serving" and DESIGN.md §9).
	ClusterMigrationStats = cluster.MigrationStats
	// StreamState is one stream's resumable state — the payload of the
	// export/import contract cross-shard migration rides on.
	StreamState = engine.StreamState
)

// Routing policies for ClusterConfig.Route.
const (
	RouteRoundRobin  = cluster.RouteRoundRobin
	RouteLeastLoaded = cluster.RouteLeastLoaded
	RouteAffinity    = cluster.RouteAffinity
)

// NewCluster builds a coordinator over pre-built shard engines.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Fault-injection and degraded-mode types (see README "Fault injection
// & degraded mode").
type (
	// FaultPlan is a deterministic, seedable schedule of service faults;
	// the same plan drives a server and a simulator to the identical
	// fault timeline.
	FaultPlan = fault.Plan
	// Fault is one scheduled perturbation over a round interval.
	Fault = fault.Fault
	// FaultKind selects the perturbation (latency, rate, errors, fail).
	FaultKind = fault.Kind
	// FaultEffects is the combined perturbation of one disk in one round,
	// as Server.FaultEffectsAt reports it.
	FaultEffects = fault.Effects
	// DegradeConfig controls the server's reaction to sustained faults.
	DegradeConfig = server.DegradeConfig
)

// Fault kinds.
const (
	FaultLatency   = fault.Latency
	FaultZoneRate  = fault.ZoneRate
	FaultReadError = fault.ReadError
	FaultFailure   = fault.Failure
	// FaultAllDisks as a Fault.Disk targets every disk in the array.
	FaultAllDisks = fault.AllDisks
)

// ParseFaultPlan parses the compact command-line fault-plan syntax, e.g.
// "latency:disk=0,from=50,until=250,factor=2;errors:disk=all,from=0,prob=0.01,retries=2".
func ParseFaultPlan(spec string, seed uint64) (FaultPlan, error) {
	return fault.ParsePlan(spec, seed)
}

// Observability types (see README "Observability" and internal/telemetry).
type (
	// ServerTelemetry is a running server's live metrics surface.
	ServerTelemetry = server.Telemetry
	// TightnessReport compares measured service quality against the
	// analytic bounds, server-wide; DiskTightness is one disk's row.
	TightnessReport = server.TightnessReport
	DiskTightness   = server.DiskTightness
	// MetricsSnapshot is an immutable copy of a metric registry.
	MetricsSnapshot = telemetry.Snapshot
)

// Round-level tracing and admission explainability (see README
// "Round-level tracing & the flight recorder" and DESIGN.md §6). The
// MPEG trace generator's TraceConfig is unrelated; these names carry the
// Trace/Span vocabulary of internal/trace.
type (
	// FlightRecorder retains the last R sweep spans in a fixed ring and
	// latches a snapshot on trigger conditions; Server.Trace() returns
	// the server's own, configured via ServerConfig.Trace.
	FlightRecorder = trace.Recorder
	// RoundTraceConfig sizes a FlightRecorder (ServerConfig.Trace).
	RoundTraceConfig = trace.Config
	// RoundSpan is one disk's SCAN sweep with per-request child events.
	RoundSpan = trace.RoundSpan
	// RequestTraceEvent is one request's realized service record: the
	// drawn seek, rotational delay, zone, transfer, retries and outcome.
	RequestTraceEvent = trace.RequestEvent
	// TraceSnapshot is a frozen flight-recorder history with its trigger.
	TraceSnapshot = trace.Snapshot
	// TraceStats is a recorder's lifetime accounting.
	TraceStats = trace.Stats
	// AdmissionStatus is the server's full admission explainability
	// report: per-disk explanations and class occupancy.
	AdmissionStatus = server.AdmissionStatus
	// AdmissionExplanation records one N_max derivation's binding
	// constraint: the first inadmissible k, which bound binds, the
	// solved Chernoff θ, and the slack to the guarantee threshold.
	AdmissionExplanation = model.AdmissionExplanation
)

// Rejection reasons: the Detail of the reject event a server records on
// its journal when admission control turns a stream away.
const (
	RejectOverload    = server.RejectOverload
	RejectClassesFull = server.RejectClassesFull
)

// Errors surfaced through the facade.
var (
	// ErrRejected is returned when admission control turns a stream away.
	ErrRejected = server.ErrRejected
	// ErrOverload means the guarantee is unattainable even for one stream.
	ErrOverload = model.ErrOverload
)

// NewModel builds the analytic model.
func NewModel(cfg ModelConfig) (*Model, error) { return model.New(cfg) }

// BuildTable precomputes an admission lookup table (§5).
func BuildTable(m *Model, specs []Guarantee) (*Table, error) { return model.BuildTable(m, specs) }

// NewServer builds a striped continuous-media server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// QuantumViking21 returns the Table-1 disk profile.
func QuantumViking21() *Geometry { return disk.QuantumViking21() }

// NewGeometry builds a custom multi-zone geometry.
func NewGeometry(name string, rotationTime float64, zones []Zone, seek SeekCurve) (*Geometry, error) {
	return disk.New(name, rotationTime, zones, seek)
}

// SingleZoneGeometry builds a conventional one-zone disk.
func SingleZoneGeometry(name string, cylinders int, rotationTime, trackCapacity float64, seek SeekCurve) (*Geometry, error) {
	return disk.SingleZone(name, cylinders, rotationTime, trackCapacity, seek)
}

// GammaSizes returns the paper's Gamma fragment-size model (bytes).
func GammaSizes(mean, sd float64) (SizeModel, error) { return workload.GammaSizes(mean, sd) }

// MustGammaSizes is GammaSizes that panics on invalid parameters, for
// static configuration.
func MustGammaSizes(mean, sd float64) SizeModel {
	m, err := workload.GammaSizes(mean, sd)
	if err != nil {
		panic(err)
	}
	return m
}

// LognormalSizes returns a Lognormal fragment-size model.
func LognormalSizes(mean, sd float64) (SizeModel, error) { return workload.LognormalSizes(mean, sd) }

// ParetoSizes returns a Pareto fragment-size model.
func ParetoSizes(mean, sd float64) (SizeModel, error) { return workload.ParetoSizes(mean, sd) }

// PaperSizes returns the Table-1 workload: Gamma(200 KB, 100 KB).
func PaperSizes() SizeModel { return workload.PaperSizes() }

// SizesFromSample fits a size model to measured fragment sizes.
func SizesFromSample(name string, sizes []float64) (SizeModel, error) {
	return workload.FromSample(name, sizes)
}

// DefaultTraceConfig returns an MPEG-2-like VBR trace configuration.
func DefaultTraceConfig() TraceConfig { return workload.DefaultTraceConfig() }

// GenerateTrace produces per-frame sizes for a synthetic VBR clip.
func GenerateTrace(cfg TraceConfig, duration float64, rng *rand.Rand) ([]float64, error) {
	return workload.GenerateTrace(cfg, duration, rng)
}

// FragmentTrace groups per-frame sizes into constant-display-time fragments.
func FragmentTrace(frames []float64, frameRate, displayTime float64) ([]float64, error) {
	return workload.Fragment(frames, frameRate, displayTime)
}

// NewRand returns a reproducible random source.
func NewRand(seed1, seed2 uint64) *rand.Rand { return dist.NewRand(seed1, seed2) }

// PlanRoundLength finds the smallest round length in [tLo, tHi] that
// admits targetN streams of the given bandwidth at threshold delta
// (fragment sizes scale with the round length at constant bandwidth).
func PlanRoundLength(g *Geometry, meanRate, cv, delta float64, targetN int, tLo, tHi float64) (float64, error) {
	return model.PlanRoundLength(g, meanRate, cv, delta, targetN, tLo, tHi)
}

// GSSResult describes a Group Sweeping Scheduling configuration (see
// Model.GSSNMax, Model.GSSSweep).
type GSSResult = model.GSSResult

// SimulatePLate estimates p_late by detailed simulation (Figure 1).
func SimulatePLate(cfg SimConfig, trials int, seed uint64) (Estimate, error) {
	return sim.EstimatePLate(cfg, trials, seed)
}

// SimulatePError estimates p_error by detailed simulation (Table 2).
func SimulatePError(cfg SimConfig, rounds, glitches, runs int, seed uint64) (Estimate, error) {
	return sim.EstimatePError(cfg, rounds, glitches, runs, seed)
}
