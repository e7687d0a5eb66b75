package main

import (
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// clusterOptions carries the subset of flags cluster mode consumes, and
// the -log logger the round loop renders the shared journal to.
type clusterOptions struct {
	shards, disks, rounds        int
	route                        string
	replicas                     int
	arrivals                     float64
	clipLen, catalog             int
	declared, actual             workload.SizeModel
	eps                          float64
	zipfS                        float64
	seed                         uint64
	report                       int
	listen                       string
	withPprof                    bool
	linger                       time.Duration
	plan                         *fault.Plan
	degrade                      bool
	degradeAfter                 int
	migrate                      bool
	migrateBudget                int
	faultShard                   int // -1 = plan applies to every shard
	recalibrateEvery, minSamples int
	slo                          slo.Config
	historyRounds                int
	noHistory                    bool
	log                          *slog.Logger // nil without -log: the journal is not read
}

// runCluster is the -shards N (N > 1) entry point: S server shards behind
// a coordinator, one shared metric registry with per-shard instance
// labels, and cluster-wide admission over the routing policy. The same
// operational scenario as single-server mode (Poisson arrivals over a
// Zipf catalog) drives the coordinator instead of one server.
func runCluster(o clusterOptions) {
	reg := telemetry.NewRegistry()
	// One journal and one ledger span the whole cluster: every shard's
	// emitters share the same sequence space, so /timeline reads as one
	// causally ordered incident narrative.
	jnl := journal.New(journal.Config{Registry: reg})
	ledger := journal.NewLedger(journal.LedgerConfig{})
	engines := make([]engine.Engine, o.shards)
	for i := range engines {
		// -fault-shard stages a targeted failure: the plan perturbs only
		// the named shard while its siblings stay healthy to absorb the
		// migrated load.
		shardPlan := o.plan
		if o.faultShard >= 0 && i != o.faultShard {
			shardPlan = nil
		}
		srv, err := server.New(server.Config{
			Disk:        disk.QuantumViking21(),
			NumDisks:    o.disks,
			RoundLength: 1,
			Sizes:       o.declared,
			Guarantee:   model.Guarantee{Threshold: o.eps},
			Seed:        o.seed + uint64(i)*0x9e3779b9,
			Faults:      shardPlan,
			Degrade:     server.DegradeConfig{Enabled: o.degrade, After: o.degradeAfter},
			Trace:       trace.Config{Disabled: true},
			SLO:         o.slo,
			Registry:    reg,
			Journal:     jnl,
			Ledger:      ledger,
			Shard:       i,
			InstanceLabels: []telemetry.Label{
				telemetry.L("shard", fmt.Sprintf("%d", i)),
			},
		})
		fatal(err)
		engines[i] = srv
	}
	// One history store for the whole cluster, sampled by the
	// coordinator's Step — never by the shards, whose configs leave
	// History nil so the shared registry is recorded once per round.
	var hist *history.Store
	if !o.noHistory {
		hist = history.New(history.Config{Registry: reg, Rounds: o.historyRounds})
	}
	coord, err := cluster.New(cluster.Config{
		Engines:       engines,
		Route:         o.route,
		Replicas:      o.replicas,
		Registry:      reg,
		Migrate:       o.migrate,
		MigrateBudget: o.migrateBudget,
		Journal:       jnl,
		Ledger:        ledger,
		History:       hist,
	})
	fatal(err)

	st := coord.Status()
	fmt.Printf("cluster: %d shards x %d disks, capacity %d streams, route %s, %d replicas/object, migrate %v\n",
		o.shards, o.disks, st.Capacity, coord.Route(), o.replicas, o.migrate)

	// SIGINT/SIGTERM stop the round loop early and still drain the
	// telemetry endpoint, so an interrupted run leaves clean scrapes.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	var endpoint *http.Server
	if o.listen != "" {
		endpoint = startTelemetry(o.listen, newClusterMux(coord, reg, hist, o.withPprof))
		defer shutdownTelemetry(endpoint)
		fmt.Printf("telemetry: http://%s/metrics (prometheus), /cluster (shard health), /admission (placements), /slo (guarantee audit), /report (bound tightness), /query + /dashboard (history)\n",
			o.listen)
	}

	// Catalog placement: clips stripe over the shards with the configured
	// replication width.
	rng := dist.NewRand(o.seed, o.seed^0xfeed)
	for i := 0; i < o.catalog; i++ {
		length := 1 + geometric(float64(o.clipLen), rng)
		sizes := make([]float64, length)
		for j := range sizes {
			sizes[j] = o.actual.Sample(rng)
		}
		fatal(coord.AddObject(fmt.Sprintf("clip-%04d", i), sizes))
	}
	pop, err := workload.NewZipf(o.catalog, o.zipfS)
	fatal(err)

	var admitted, rejected, completed, evicted, glitches int
	var migrated, migrateFailed, failedOver int
	var logged uint64 // newest journal seq rendered to o.log
loop:
	for r := 0; r < o.rounds; r++ {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "mzserver: %v, stopping after round %d\n", sig, r)
			break loop
		default:
		}
		for k := poisson(o.arrivals, rng); k > 0; k-- {
			name := fmt.Sprintf("clip-%04d", pop.Sample(rng))
			if _, _, err := coord.Open(name); err != nil {
				rejected++
			} else {
				admitted++
			}
		}
		rep := coord.Step()
		glitches += rep.Glitches
		completed += rep.Completed
		evicted += rep.Evicted
		migrated += rep.Migrated
		migrateFailed += rep.MigrationFailed
		failedOver += rep.FailedOver
		if rep.Migrated > 0 || rep.FailedOver > 0 {
			fmt.Printf("round %4d: migrated %d streams to siblings (%d failed over from failed shards, %d unplaceable)\n",
				r+1, rep.Migrated, rep.FailedOver, rep.MigrationFailed)
		}
		if o.recalibrateEvery > 0 && (r+1)%o.recalibrateEvery == 0 {
			if n := coord.Recalibrate(int64(o.minSamples)); n > 0 {
				fmt.Printf("round %4d: recalibrated the admission limits of %d of %d shards\n", r+1, n, coord.NumShards())
			}
		}
		if o.report > 0 && (r+1)%o.report == 0 {
			s := coord.Status()
			degraded := 0
			for _, row := range s.Shards {
				if row.Health.Degraded {
					degraded++
				}
			}
			fmt.Printf("round %4d: tickets %4d/%d  admitted %5d  rejected %4d  glitches %5d  degraded shards %d\n",
				r+1, s.Tickets, s.Capacity, admitted, rejected, glitches, degraded)
		}
		if o.log != nil {
			logged = logJournal(o.log, jnl, logged)
		}
	}

	fmt.Println()
	fmt.Printf("final: %d streams admitted, %d rejected (%.1f%% block rate), %d completed, %d shed\n",
		admitted, rejected, 100*float64(rejected)/math.Max(1, float64(admitted+rejected)),
		completed, evicted)
	if o.migrate {
		ms := coord.MigrationStats()
		fmt.Printf("migration: %d resumed on siblings / %d attempts, %d failed over from failed shards, %d unplaceable, %d still queued\n",
			ms.Succeeded, ms.Attempted, ms.FailoverStreams, ms.Failed, ms.Pending)
	}
	final := coord.Status()
	for _, row := range final.Shards {
		fmt.Printf("  shard %d: %4d active / %4d capacity (N_max %d/disk), round %d, degraded %v\n",
			row.Shard, row.Health.Active, row.Health.Capacity, row.Health.PerDiskLimit,
			row.Health.Round, row.Health.Degraded)
	}

	// The paper's guarantee checked across the cluster: every shard's
	// measured tails beside the analytic bounds they admitted under.
	if ct := coord.TightnessReport(); ct.AuditedShards > 0 {
		fmt.Println()
		fmt.Printf("bound tightness (measured vs analytic, %d/%d shards audited, within bounds: %v):\n",
			ct.AuditedShards, len(ct.Shards), ct.WithinBounds)
		fmt.Printf("  %-5s %-4s %-8s %8s %6s %14s %14s %14s %14s %9s %9s %9s\n",
			"shard", "disk", "sweeps", "peak N", "ok", "P^[T>t]", "b_late", "glitch rate", "b_glitch",
			"T p50", "T p99", "T p999")
		for _, row := range ct.Shards {
			if !row.Audited {
				continue
			}
			for _, d := range row.Report.Disks {
				ok := "yes"
				if !d.WithinBounds() {
					ok = "NO"
				}
				fmt.Printf("  %-5d %-4d %-8d %8d %6s %14.3e %14.3e %14.3e %14.3e %9.3f %9.3f %9.3f\n",
					row.Shard, d.Disk, d.Sweeps, d.PeakLoad, ok,
					d.EmpiricalPLate, d.BoundPLate, d.EmpiricalGlitchRate, d.BoundGlitch,
					d.TP50, d.TP99, d.TP999)
			}
		}
	}

	// Cluster SLO roll-up: the capacity-weighted error budget across the
	// audited shards and each target's burn rate at exit.
	if cs := coord.SLOStatus(); cs.AuditedShards > 0 {
		fmt.Printf("slo audit: %d/%d shards audited, %d firing\n",
			cs.AuditedShards, len(cs.Shards), cs.FiringShards)
		for _, t := range cs.Targets {
			fmt.Printf("  %-7s budget %10.3e  fast %.3e (burn %.2fx)  slow %.3e (burn %.2fx)  firing %d  pending %d\n",
				t.Target, t.Budget, t.MeasuredFast, t.BurnFast, t.MeasuredSlow, t.BurnSlow,
				t.FiringShards, t.PendingShards)
		}
	}

	if o.listen != "" && o.linger > 0 {
		fmt.Printf("lingering %s for scrapers on %s ...\n", o.linger, o.listen)
		select {
		case <-time.After(o.linger):
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "mzserver: %v, ending linger early\n", sig)
		}
	}
	// The deferred shutdownTelemetry drains in-flight scrapes before exit.
}

// clusterAdmissionReport is the cluster /admission payload: the routing
// policy and the retained admissions, each naming its shard.
type clusterAdmissionReport struct {
	Route      string                    `json:"route"`
	Admissions []cluster.AdmissionRecord `json:"admissions"`
}

// newClusterMux wires the cluster-mode endpoints: everything buildMux
// serves — /admission here lists recent admissions, each naming the shard
// that admitted it — plus
//
//	/cluster     shard health + placement summary (cluster.Status JSON)
func newClusterMux(coord *cluster.Coordinator, reg *telemetry.Registry, hist *history.Store, withPprof bool) *http.ServeMux {
	return buildMux(reg, hist, withPprof, surfaces{
		title:       "mzqos cluster",
		roundLength: 1, // cluster shards all run the canonical 1 s round
		report:      func() (any, error) { return coord.TightnessReport(), nil },
		admission: func() any {
			return clusterAdmissionReport{Route: coord.Route(), Admissions: coord.Admissions()}
		},
		slo: func() any { return coord.SLOStatus() },
		extra: map[string]http.HandlerFunc{
			"/cluster": jsonHandler(func() any { return coord.Status() }),
		},
		bundle: func(b *debugBundle) {
			st := coord.Status()
			b.Kind = "cluster"
			b.Round = coord.Round()
			b.Config = bundleGeometry{
				Shards:   coord.NumShards(),
				Capacity: st.Capacity,
				Route:    coord.Route(),
			}
			b.Cluster = st
			b.Migration = coord.MigrationStats()
		},
		healthy: clusterHealthCheck(coord),
		jnl:     coord.Journal(),
		ledger:  coord.QoSLedger(),
	})
}
