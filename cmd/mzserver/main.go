// Command mzserver runs an operational scenario on the striped
// continuous-media server: a clip catalog, Poisson client arrivals,
// admission control driven by the analytic model, and (optionally)
// periodic recalibration of the admission limit from observed workload
// statistics (§5).
//
// Usage:
//
//	mzserver -disks 4 -rounds 600 -arrivals 0.5
//	mzserver -disks 8 -rounds 1200 -arrivals 1.2 -cliplen 300 -recalibrate 200
//	mzserver -mean 300 -sd 150                  # heavier clips than declared
//	mzserver -listen :9090 -linger 1m           # scrape /metrics, /report
//	mzserver -faults "latency:disk=0,from=100,until=400,factor=2" -degrade
//	mzserver -shards 4 -route least-loaded      # four shards
//
// The process runs -shards server shards (default 1) of -disks disks each
// behind a coordinator with cluster-wide admission (see internal/cluster):
// one round loop opens each arrival through the coordinator, which
// applies the §5 test per shard, then steps every shard. -route picks the
// routing policy (round-robin, least-loaded, affinity) and -replicas the
// per-clip placement width. All shards share one metric registry, in
// which every mzqos_server_* series carries a shard label, one event
// journal and one stream ledger. -migrate turns eviction into migration:
// streams a degrading shard sheds (and the active sets of failed shards)
// resume on sibling replicas at their playback position, paced by
// -migrate-budget re-admissions per round. -fault-shard restricts -faults
// to one shard, which is how a scripted full shard failure is staged.
// Every flag means the same at every shard count.
//
// With -listen the process serves live telemetry while the rounds run:
// Prometheus text on /metrics, the bound-vs-measured tightness report of
// every shard on /report, shard health on /cluster, recent admissions on
// /admission, the guarantee audit rolled up across shards on /slo, the
// event journal on /timeline, and each shard's own views under
// /shard/{i}/: admission explanations, the audit with its incidents,
// sweeps, faults and the flight recorder (see buildMux).
// With -pprof the runtime profiler is served under /debug/pprof.
// -slo-fast/-slo-slow size the audit's windows, each tested against the
// quoted bound at slo.Alpha; -no-slo disables it. -trace-spans sizes each shard's flight
// recorder and -no-trace turns it off. -linger keeps the endpoint up
// after the last round so scrapers and smoke tests can read the final
// state.
//
// -faults schedules deterministic service faults against the round
// timeline (kinds latency, rate, errors, fail; semicolon-separated);
// -degrade turns on graceful degradation, which re-derives the admission
// limit against the degraded disks and sheds the newest streams to fit.
//
// -log text|json renders the event journal (/timeline's events) to stderr
// as log/slog records at the end of every round.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strconv"
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

func main() {
	var (
		disks       = flag.Int("disks", 4, "number of disks per shard")
		shards      = flag.Int("shards", 1, "server shards behind the coordinator")
		route       = flag.String("route", "round-robin", "routing policy: round-robin, least-loaded, or affinity")
		replicas    = flag.Int("replicas", 1, "placement replicas per clip")
		rounds      = flag.Int("rounds", 600, "rounds to simulate")
		arrivals    = flag.Float64("arrivals", 0.8, "mean client arrivals per round (Poisson)")
		clipLen     = flag.Int("cliplen", 300, "mean clip length in rounds (geometric)")
		catalog     = flag.Int("catalog", 100, "number of clips in the catalog")
		declMean    = flag.Float64("declared-mean", 200, "declared mean fragment size (KB)")
		declSD      = flag.Float64("declared-sd", 100, "declared fragment size std dev (KB)")
		meanKB      = flag.Float64("mean", 200, "actual mean fragment size (KB)")
		sdKB        = flag.Float64("sd", 100, "actual fragment size std dev (KB)")
		recalEvery  = flag.Int("recalibrate", 0, "recalibrate the admission limits every N rounds (0 = never)")
		streamLimit = flag.Float64("eps", 0.01, "per-round lateness threshold")
		zipfS       = flag.Float64("zipf", 0.8, "Zipf popularity exponent for clip selection (0 = uniform)")
		seed        = flag.Uint64("seed", 42, "random seed")
		report      = flag.Int("report", 100, "progress report interval in rounds")
		listen      = flag.String("listen", "", "serve telemetry over HTTP on this address (empty = disabled)")
		withPprof   = flag.Bool("pprof", false, "also expose /debug/pprof on the telemetry endpoint")
		linger      = flag.Duration("linger", 0, "keep the telemetry endpoint up this long after the last round")
		faultSpec   = flag.String("faults", "", `fault schedule, e.g. "latency:disk=0,from=100,until=400,factor=2;errors:disk=all,from=0,prob=0.01,retries=2"`)
		degrade     = flag.Bool("degrade", false, "react to sustained faults: recompute the admission limit against the degraded disks and shed newest streams to fit")
		degradeWait = flag.Int("degrade-after", 0, "consecutive faulty (or clean) rounds before degrading (or restoring); 0 = default")
		migrate     = flag.Bool("migrate", false, "resume evicted streams (and failed shards' active sets) on sibling replicas instead of dropping them")
		migBudget   = flag.Int("migrate-budget", 0, "migration re-admissions per round (0 = default)")
		faultShard  = flag.Int("fault-shard", -1, "apply -faults to this shard only (-1 = every shard)")
		logFmt      = flag.String("log", "", "render the journal's lifecycle events to stderr as 'text' or 'json' slog records, one per event, each round (empty = disabled)")
		traceSpans  = flag.Int("trace-spans", 0, "flight-recorder ring capacity in sweep spans, per shard (0 = default)")
		noTrace     = flag.Bool("no-trace", false, "disable round-level tracing and the flight recorder")
		sloFast     = flag.Int("slo-fast", 0, "SLO audit fast window in rounds (0 = default)")
		sloSlow     = flag.Int("slo-slow", 0, "SLO audit slow window in rounds (0 = default)")
		noSLO       = flag.Bool("no-slo", false, "disable the SLO audit (windowed bound-vs-measured alerting)")
		histRounds  = flag.Int("history-rounds", 0, "embedded metrics-history retention in rounds (0 = default 4096)")
		noHistory   = flag.Bool("no-history", false, "disable the embedded metrics history (/query, /dashboard)")
	)
	flag.Parse()
	fatal(checkOptions(*shards, *faultShard))

	var logger *slog.Logger
	switch *logFmt {
	case "":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("unknown -log format %q (want text or json)", *logFmt))
	}

	declared, err := workload.GammaSizes(*declMean*workload.KB, *declSD*workload.KB)
	fatal(err)
	actual, err := workload.GammaSizes(*meanKB*workload.KB, *sdKB*workload.KB)
	fatal(err)

	var plan *fault.Plan
	if *faultSpec != "" {
		p, err := fault.ParsePlan(*faultSpec, *seed)
		fatal(err)
		fatal(p.Validate(*disks))
		plan = &p
	}

	reg := telemetry.NewRegistry()
	// One journal and one ledger span every shard: the shards' emitters
	// share one sequence space, so /timeline reads as one causally ordered
	// incident narrative.
	jnl := journal.New(journal.Config{Registry: reg})
	ledger := journal.NewLedger(journal.LedgerConfig{})
	srvs := make([]*server.Server, *shards)
	engines := make([]engine.Engine, *shards)
	for i := range srvs {
		// -fault-shard stages a targeted failure: the plan perturbs only
		// the named shard while its siblings stay healthy to absorb the
		// migrated load.
		shardPlan := plan
		if *faultShard >= 0 && i != *faultShard {
			shardPlan = nil
		}
		srv, err := server.New(server.Config{
			Disk:           disk.QuantumViking21(),
			NumDisks:       *disks,
			RoundLength:    1,
			Sizes:          declared,
			Guarantee:      model.Guarantee{Threshold: *streamLimit},
			Seed:           *seed + uint64(i)*0x9e3779b9,
			Faults:         shardPlan,
			Degrade:        server.DegradeConfig{Enabled: *degrade, After: *degradeWait},
			Trace:          trace.Config{Disabled: *noTrace, Spans: *traceSpans},
			SLO:            slo.Config{Disabled: *noSLO, FastWindow: *sloFast, SlowWindow: *sloSlow},
			Registry:       reg,
			Journal:        jnl,
			Ledger:         ledger,
			Shard:          i,
			InstanceLabels: []telemetry.Label{telemetry.L("shard", strconv.Itoa(i))},
		})
		fatal(err)
		srvs[i], engines[i] = srv, srv
	}
	// One history store, sampled by the coordinator's Step once per round
	// after every shard has stepped; the shards are handed none.
	var hist *history.Store
	if !*noHistory {
		hist = history.New(history.Config{Registry: reg, Rounds: *histRounds})
	}
	coord, err := cluster.New(cluster.Config{
		Engines:       engines,
		Route:         *route,
		Replicas:      *replicas,
		Registry:      reg,
		Migrate:       *migrate,
		MigrateBudget: *migBudget,
		Journal:       jnl,
		Ledger:        ledger,
		History:       hist,
	})
	fatal(err)

	fmt.Printf("cluster: %d shards x %d disks, admission limit %d/disk, capacity %d streams, route %s, %d replicas/object, migrate %v\n",
		*shards, *disks, srvs[0].PerDiskLimit(), coord.Status().Capacity, coord.Route(), *replicas, *migrate)
	fmt.Printf("workload: declared %s, actual %s\n", declared.Name, actual.Name)
	if plan != nil {
		mode := "faults only (guarantee may be violated)"
		if *degrade {
			mode = "graceful degradation enabled"
		}
		where := "every shard"
		if *faultShard >= 0 {
			where = fmt.Sprintf("shard %d", *faultShard)
		}
		fmt.Printf("faults: %d scheduled [%s] on %s, %s\n", len(plan.Faults), plan.String(), where, mode)
	}

	// SIGINT/SIGTERM stop the round loop early and still drain the
	// telemetry endpoint, so an interrupted run leaves clean scrapes.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	if *listen != "" {
		endpoint := startTelemetry(*listen, buildMux(coord, srvs, hist, *withPprof))
		defer shutdownTelemetry(endpoint)
		fmt.Printf("telemetry: http://%s/metrics (prometheus), /report (bound tightness), /cluster (shard health), /slo (guarantee audit), /query + /dashboard (history), /shard/{i}/... (per-shard views)\n", *listen)
	}

	// Build the catalog with the *actual* workload; clips stripe over the
	// shards with the configured replication width.
	rng := dist.NewRand(*seed, *seed^0xfeed)
	for i := 0; i < *catalog; i++ {
		length := 1 + geometric(float64(*clipLen), rng)
		sizes := make([]float64, length)
		for j := range sizes {
			sizes[j] = actual.Sample(rng)
		}
		fatal(coord.AddObject(fmt.Sprintf("clip-%04d", i), sizes))
	}

	pop, err := workload.NewZipf(*catalog, *zipfS)
	fatal(err)
	fmt.Printf("popularity: Zipf(s=%g), top 10%% of clips draw %.0f%% of requests\n",
		*zipfS, 100*pop.TopShare(*catalog/10))

	var admitted, rejected, completed, evicted, glitches, requests, lost int
	var busy float64
	var logged uint64                 // newest journal seq rendered to the -log logger
	degraded := make([]bool, *shards) // each shard's degraded state as last printed
	drift := make([]float64, *shards) // each shard's drift and limit before a refit
	limit := make([]int, *shards)
	diskRounds := float64(*shards * *disks) // disk-rounds per round
	r := 0                                  // rounds executed: a signal leaves the loop short of -rounds
loop:
	for ; r < *rounds; r++ {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "mzserver: %v, stopping after round %d\n", sig, r)
			break loop
		default:
		}
		// Poisson arrivals pick catalog entries by popularity.
		for k := poisson(*arrivals, rng); k > 0; k-- {
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
		for i := range rep.Shards {
			sr, srv := &rep.Shards[i].Report, srvs[i]
			for _, d := range sr.Disks {
				requests += d.Requests
				busy += d.Busy
				lost += d.Lost
			}
			if len(sr.Evicted) > 0 {
				fmt.Printf("round %4d: shard %d degraded limit %d/disk, shed %d streams\n",
					r+1, i, srv.PerDiskLimit(), len(sr.Evicted))
			}
			if d := srv.Degraded(); d != degraded[i] {
				degraded[i] = d
				if d {
					fmt.Printf("round %4d: shard %d entering degraded mode (admission limit %d/disk)\n", r+1, i, srv.PerDiskLimit())
				} else {
					fmt.Printf("round %4d: shard %d faults cleared, healthy limit %d/disk restored\n", r+1, i, srv.PerDiskLimit())
				}
			}
		}
		if rep.Migrated > 0 || rep.FailedOver > 0 {
			fmt.Printf("round %4d: migrated %d streams to siblings (%d failed over from failed shards, %d unplaceable)\n",
				r+1, rep.Migrated, rep.FailedOver, rep.MigrationFailed)
		}
		if *recalEvery > 0 && (r+1)%*recalEvery == 0 {
			// Drift is read before the refit: after it, it is measured
			// against the fit just made.
			for i, srv := range srvs {
				drift[i], limit[i] = srv.SizeDrift(), srv.PerDiskLimit()
			}
			if coord.Recalibrate(500) > 0 {
				for i, srv := range srvs {
					if now := srv.PerDiskLimit(); now != limit[i] {
						fmt.Printf("round %4d: shard %d recalibrated admission limit %d -> %d (observed drift %.0f%%)\n",
							r+1, i, limit[i], now, 100*drift[i])
					}
				}
			}
		}
		if *report > 0 && (r+1)%*report == 0 {
			st := coord.Status()
			nDegraded := 0
			for _, row := range st.Shards {
				if row.Health.Degraded {
					nDegraded++
				}
			}
			fmt.Printf("round %4d: active %4d/%d  admitted %5d  rejected %4d  glitches %5d  degraded shards %d  util %5.1f%%\n",
				r+1, st.Tickets, st.Capacity, admitted, rejected, glitches, nDegraded, 100*busy/(float64(r+1)*diskRounds))
		}
		if logger != nil {
			logged = logJournal(logger, jnl, logged)
		}
	}

	fmt.Println()
	fmt.Printf("final: %d streams admitted, %d rejected (%.1f%% block rate), %d completed, %d shed\n",
		admitted, rejected, 100*float64(rejected)/math.Max(1, float64(admitted+rejected)), completed, evicted)
	if requests > 0 {
		fmt.Printf("served %d fragments, %d glitches (rate %.5f%%)\n",
			requests, glitches, 100*float64(glitches)/float64(requests))
	}
	final := coord.Status()
	if plan != nil {
		nDegraded := 0
		for _, row := range final.Shards {
			if row.Health.Degraded {
				nDegraded++
			}
		}
		fmt.Printf("faults: %d fragments lost, %d streams shed, %d of %d shards degraded at exit\n",
			lost, evicted, nDegraded, *shards)
	}
	fmt.Printf("disk utilization %.1f%%\n", 100*busy/(math.Max(1, float64(r))*diskRounds))
	if *migrate {
		ms := coord.MigrationStats()
		fmt.Printf("migration: %d resumed on siblings / %d attempts, %d failed over from failed shards, %d unplaceable, %d still queued\n",
			ms.Succeeded, ms.Attempted, ms.FailoverStreams, ms.Failed, ms.Pending)
	}
	for i, row := range final.Shards {
		fmt.Printf("  shard %d: %4d active / %4d capacity (N_max %d/disk), round %d, degraded %v\n",
			row.Shard, row.Health.Active, row.Health.Capacity, row.Health.PerDiskLimit,
			row.Health.Round, row.Health.Degraded)
		if mean, sd, n := srvs[i].ObservedSizeStats(); n > 0 {
			fmt.Printf("    observed workload: mean %.0f KB, sd %.0f KB over %d fragments (drift %.0f%%)\n",
				mean/workload.KB, sd/workload.KB, n, 100*srvs[i].SizeDrift())
		}
	}

	// The paper's guarantee, checked live: every shard's measured tails
	// beside the analytic Chernoff bounds they were admitted under.
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
	// The SLO audit's verdict: the cluster's test at exit, each window's
	// violations of its population pooled over the audited shards against
	// the critical count at the largest shard budget.
	if cs := coord.SLOStatus(); cs.AuditedShards > 0 {
		fmt.Println()
		fmt.Printf("slo audit: %d/%d shards audited, %d firing\n",
			cs.AuditedShards, len(cs.Shards), cs.FiringShards)
		for _, t := range cs.Targets {
			fmt.Printf("  %-7s budget %10.3e  %-8s", t.Target, t.Budget, t.State)
			for _, w := range t.Windows {
				fmt.Printf("  %s %d/%d (critical %d)", w.Window, w.Violations, w.Population, w.Critical)
			}
			fmt.Printf("  shards firing %d  pending %d\n", t.FiringShards, t.PendingShards)
		}
	}
	mt := model.Telemetry()
	fmt.Printf("model cache: %.1f%% chain hit ratio (%d hits, %d extensions), %d warm / %d cold solves, %d search probes\n",
		100*mt.CacheHitRatio(), mt.ChainHits, mt.ChainExtensions, mt.WarmSolves, mt.ColdSolves, mt.SearchProbes)

	if *listen != "" && *linger > 0 {
		fmt.Printf("lingering %s for scrapers on %s ...\n", *linger, *listen)
		select {
		case <-time.After(*linger):
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "mzserver: %v, ending linger early\n", sig)
		}
	}
	// The deferred shutdownTelemetry drains in-flight scrapes before exit.
}

// checkOptions rejects the shard flags that would otherwise be accepted
// and do nothing, or panic: fewer than one shard, or a -fault-shard that
// names no shard (-1 means every shard).
func checkOptions(shards, faultShard int) error {
	if shards < 1 {
		return fmt.Errorf("-shards %d: want at least 1", shards)
	}
	if faultShard < -1 || faultShard >= shards {
		return fmt.Errorf("-fault-shard %d: want -1 (every shard) or a shard in [0, %d)", faultShard, shards)
	}
	return nil
}

// logJournal renders the journal events after seq after to log, one
// Info record per event in seq order: the kind is the message and the
// event's /timeline JSON fields, in their order, are the attributes. A
// first event past after+1 means the ring lapped between reads; one Warn
// record then names the first lost seq and how many were lost. It returns
// the newest seq written, or after when there was nothing new.
func logJournal(log *slog.Logger, jnl *journal.Journal, after uint64) uint64 {
	f := journal.MatchAll()
	f.SinceSeq = after
	evs := jnl.Events(f)
	if len(evs) == 0 {
		return after
	}
	if lost := evs[0].Seq - after - 1; lost > 0 {
		log.Warn("journal events lost", "first_seq", after+1, "lost", lost)
	}
	for _, e := range evs {
		b, _ := json.Marshal(e) // flat numbers and strings: cannot fail
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		dec.Token() // the opening brace
		var attrs []slog.Attr
		for dec.More() {
			k, _ := dec.Token()
			v, _ := dec.Token()
			if k != "kind" {
				attrs = append(attrs, slog.Any(k.(string), v))
			}
		}
		log.LogAttrs(context.Background(), slog.LevelInfo, e.Kind.String(), attrs...)
	}
	return evs[len(evs)-1].Seq
}

func poisson(lambda float64, rng interface{ Float64() float64 }) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func geometric(mean float64, rng interface{ Float64() float64 }) int {
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	n := 0
	for rng.Float64() > p && n < 1<<20 {
		n++
	}
	return n
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mzserver: %v\n", err)
		os.Exit(1)
	}
}
