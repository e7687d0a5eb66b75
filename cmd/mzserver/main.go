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
//	mzserver -shards 4 -route least-loaded      # cluster mode: S shards
//
// With -shards N (N > 1) the process runs cluster mode: N server shards
// behind a coordinator with cluster-wide admission (see internal/cluster).
// -route picks the routing policy (round-robin, least-loaded, affinity)
// and -replicas the per-clip placement width. All shards share one metric
// registry — every mzqos_server_* series carries a shard label — and the
// telemetry endpoint serves /cluster (shard health) and /admission
// (recent placements, each naming its shard) instead of the single-server
// report surface. -migrate turns eviction into migration: streams a
// degrading shard sheds (and the active sets of failed shards) resume on
// sibling replicas at their playback position, paced by -migrate-budget
// re-admissions per round. -fault-shard restricts -faults to one shard,
// which is how a scripted full shard failure is staged.
//
// With -listen the process serves live telemetry while the rounds run:
// Prometheus text on /metrics, the bound-vs-measured tightness report on
// /report, recent per-sweep phase breakdowns on /sweeps, the fault plan
// and current effects on /faults,
// the guarantee audit (windowed tail estimates, burn rates, alert state)
// on /slo, and (with -pprof) the runtime profiler under /debug/pprof.
// -slo-fast/-slo-slow/-slo-burn tune the audit's windows and alert
// threshold; -no-slo disables it. -linger
// keeps the endpoint up after the last round so scrapers and smoke tests
// can read the final state.
//
// -faults schedules deterministic service faults against the round
// timeline (kinds latency, rate, errors, fail; semicolon-separated);
// -degrade turns on graceful degradation, which re-derives the admission
// limit against the degraded disks and sheds the newest streams to fit.
//
// -log text|json renders the event journal (/timeline's events) to stderr
// as log/slog records at the end of every round, in both modes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
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
		disks       = flag.Int("disks", 4, "number of disks")
		shards      = flag.Int("shards", 1, "server shards; >1 runs cluster mode behind a coordinator")
		route       = flag.String("route", "round-robin", "cluster routing policy: round-robin, least-loaded, or affinity")
		replicas    = flag.Int("replicas", 1, "cluster placement replicas per clip")
		rounds      = flag.Int("rounds", 600, "rounds to simulate")
		arrivals    = flag.Float64("arrivals", 0.8, "mean client arrivals per round (Poisson)")
		clipLen     = flag.Int("cliplen", 300, "mean clip length in rounds (geometric)")
		catalog     = flag.Int("catalog", 100, "number of clips in the catalog")
		declMean    = flag.Float64("declared-mean", 200, "declared mean fragment size (KB)")
		declSD      = flag.Float64("declared-sd", 100, "declared fragment size std dev (KB)")
		meanKB      = flag.Float64("mean", 200, "actual mean fragment size (KB)")
		sdKB        = flag.Float64("sd", 100, "actual fragment size std dev (KB)")
		recalEvery  = flag.Int("recalibrate", 0, "recalibrate the admission limit every N rounds (0 = never)")
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
		migrate     = flag.Bool("migrate", false, "cluster mode: resume evicted streams (and failed shards' active sets) on sibling replicas instead of dropping them")
		migBudget   = flag.Int("migrate-budget", 0, "cluster migration re-admissions per round (0 = default)")
		faultShard  = flag.Int("fault-shard", -1, "cluster mode: apply -faults to this shard only (-1 = every shard)")
		logFmt      = flag.String("log", "", "render the journal's lifecycle events to stderr as 'text' or 'json' slog records, one per event, each round (empty = disabled)")
		traceSpans  = flag.Int("trace-spans", 0, "flight-recorder ring capacity in sweep spans (0 = default)")
		noTrace     = flag.Bool("no-trace", false, "disable round-level tracing and the flight recorder")
		sloFast     = flag.Int("slo-fast", 0, "SLO audit fast window in rounds (0 = default)")
		sloSlow     = flag.Int("slo-slow", 0, "SLO audit slow window in rounds (0 = default)")
		sloBurn     = flag.Float64("slo-burn", 0, "SLO burn-rate alert threshold (0 = default)")
		noSLO       = flag.Bool("no-slo", false, "disable the SLO audit (windowed bound-vs-measured burn-rate alerting)")
		histRounds  = flag.Int("history-rounds", 0, "embedded metrics-history retention in rounds (0 = default 4096)")
		noHistory   = flag.Bool("no-history", false, "disable the embedded metrics history (/query, /dashboard)")
	)
	flag.Parse()

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

	sloCfg := slo.Config{
		Disabled:   *noSLO,
		FastWindow: *sloFast,
		SlowWindow: *sloSlow,
		Burn:       *sloBurn,
	}

	if *shards > 1 {
		runCluster(clusterOptions{
			shards:           *shards,
			disks:            *disks,
			rounds:           *rounds,
			route:            *route,
			replicas:         *replicas,
			arrivals:         *arrivals,
			clipLen:          *clipLen,
			catalog:          *catalog,
			declared:         declared,
			actual:           actual,
			eps:              *streamLimit,
			zipfS:            *zipfS,
			seed:             *seed,
			report:           *report,
			listen:           *listen,
			withPprof:        *withPprof,
			linger:           *linger,
			plan:             plan,
			degrade:          *degrade,
			degradeAfter:     *degradeWait,
			migrate:          *migrate,
			migrateBudget:    *migBudget,
			faultShard:       *faultShard,
			recalibrateEvery: *recalEvery,
			minSamples:       500,
			slo:              sloCfg,
			historyRounds:    *histRounds,
			noHistory:        *noHistory,
			log:              logger,
		})
		return
	}

	reg := telemetry.NewRegistry()
	jnl := journal.New(journal.Config{Registry: reg})
	ledger := journal.NewLedger(journal.LedgerConfig{})
	var hist *history.Store
	if !*noHistory {
		hist = history.New(history.Config{Registry: reg, Rounds: *histRounds})
	}
	srv, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    *disks,
		RoundLength: 1,
		Sizes:       declared,
		Guarantee:   model.Guarantee{Threshold: *streamLimit},
		Seed:        *seed,
		Faults:      plan,
		Degrade:     server.DegradeConfig{Enabled: *degrade, After: *degradeWait},
		Trace:       trace.Config{Disabled: *noTrace, Spans: *traceSpans},
		SLO:         sloCfg,
		Registry:    reg,
		Journal:     jnl,
		Ledger:      ledger,
		History:     hist,
	})
	fatal(err)

	rng := dist.NewRand(*seed, *seed^0xfeed)
	fmt.Printf("server: %d disks, admission limit %d/disk (%d total), declared %s, actual %s\n",
		*disks, srv.PerDiskLimit(), srv.Capacity(), declared.Name, actual.Name)
	if plan != nil {
		mode := "faults only (guarantee may be violated)"
		if *degrade {
			mode = "graceful degradation enabled"
		}
		fmt.Printf("faults: %d scheduled [%s], %s\n", len(plan.Faults), plan.String(), mode)
	}

	// SIGINT/SIGTERM stop the round loop early and still drain the
	// telemetry endpoint, so an interrupted run leaves clean scrapes.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	var endpoint *http.Server
	if *listen != "" {
		endpoint = startTelemetry(*listen, newTelemetryMux(srv, hist, *withPprof))
		defer shutdownTelemetry(endpoint)
		fmt.Printf("telemetry: http://%s/metrics (prometheus), /report (bound tightness), /slo (guarantee audit), /query + /dashboard (history)\n", *listen)
	}

	// Build the catalog with the *actual* workload.
	for i := 0; i < *catalog; i++ {
		length := 1 + geometric(float64(*clipLen), rng)
		sizes := make([]float64, length)
		for j := range sizes {
			sizes[j] = actual.Sample(rng)
		}
		fatal(srv.AddObject(fmt.Sprintf("clip-%04d", i), sizes))
	}

	pop, err := workload.NewZipf(*catalog, *zipfS)
	fatal(err)
	fmt.Printf("popularity: Zipf(s=%g), top 10%% of clips draw %.0f%% of requests\n",
		*zipfS, 100*pop.TopShare(*catalog/10))

	var admitted, rejected, completedStreams, evictedStreams int
	var glitchTotal, requestTotal, lostTotal int
	var busy float64
	var logged uint64 // newest journal seq rendered to the -log logger
	wasDegraded := false
	r := 0 // rounds executed: a signal leaves the loop short of -rounds
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
			if _, _, err := srv.Open(name); err != nil {
				rejected++
			} else {
				admitted++
			}
		}
		rep := srv.Step()
		glitchTotal += rep.Glitches
		completedStreams += len(rep.Completed)
		for _, d := range rep.Disks {
			requestTotal += d.Requests
			busy += d.Busy
			lostTotal += d.Lost
		}
		if len(rep.Evicted) > 0 {
			evictedStreams += len(rep.Evicted)
			fmt.Printf("round %4d: degraded limit %d/disk, shed %d streams\n",
				r+1, srv.PerDiskLimit(), len(rep.Evicted))
		}
		if degraded := srv.Degraded(); degraded != wasDegraded {
			wasDegraded = degraded
			if degraded {
				fmt.Printf("round %4d: entering degraded mode (admission limit %d/disk)\n", r+1, srv.PerDiskLimit())
			} else {
				fmt.Printf("round %4d: faults cleared, healthy limit %d/disk restored\n", r+1, srv.PerDiskLimit())
			}
		}
		if *recalEvery > 0 && (r+1)%*recalEvery == 0 {
			if old, now, err := srv.Recalibrate(500); err == nil && old != now {
				fmt.Printf("round %4d: recalibrated admission limit %d -> %d (observed drift %.0f%%)\n",
					r+1, old, now, 100*srv.SizeDrift())
				srv.RestartObservation()
			}
		}
		if *report > 0 && (r+1)%*report == 0 {
			util := busy / (float64(r+1) * float64(*disks))
			fmt.Printf("round %4d: active %3d  admitted %4d  rejected %4d  glitches %5d  util %5.1f%%\n",
				r+1, srv.Active(), admitted, rejected, glitchTotal, 100*util)
		}
		if logger != nil {
			logged = logJournal(logger, jnl, logged)
		}
	}

	fmt.Println()
	fmt.Printf("final: %d streams admitted, %d rejected (%.1f%% block rate), %d completed\n",
		admitted, rejected, 100*float64(rejected)/math.Max(1, float64(admitted+rejected)), completedStreams)
	if requestTotal > 0 {
		fmt.Printf("served %d fragments, %d glitches (rate %.5f%%)\n",
			requestTotal, glitchTotal, 100*float64(glitchTotal)/float64(requestTotal))
	}
	if plan != nil {
		fmt.Printf("faults: %d fragments lost, %d streams shed, degraded at exit: %v\n",
			lostTotal, evictedStreams, srv.Degraded())
	}
	fmt.Printf("disk utilization %.1f%%\n", 100*busy/(math.Max(1, float64(r))*float64(*disks)))
	mean, sd, n := srv.ObservedSizeStats()
	if n > 0 {
		fmt.Printf("observed workload: mean %.0f KB, sd %.0f KB over %d fragments (drift %.0f%%)\n",
			mean/workload.KB, sd/workload.KB, n, 100*srv.SizeDrift())
	}

	// The paper's guarantee, checked live: measured tails beside the
	// analytic Chernoff bounds they were admitted under.
	if rep, err := srv.BoundTightness(); err == nil {
		fmt.Println()
		fmt.Println("bound tightness (measured vs analytic, per disk):")
		fmt.Printf("  %-4s %-8s %8s %6s %14s %14s %14s %14s %9s %9s %9s\n",
			"disk", "sweeps", "peak N", "ok", "P^[T>t]", "b_late", "glitch rate", "b_glitch",
			"T p50", "T p99", "T p999")
		for _, d := range rep.Disks {
			ok := "yes"
			if !d.WithinBounds() {
				ok = "NO"
			}
			fmt.Printf("  %-4d %-8d %8d %6s %14.3e %14.3e %14.3e %14.3e %9.3f %9.3f %9.3f\n",
				d.Disk, d.Sweeps, d.PeakLoad, ok,
				d.EmpiricalPLate, d.BoundPLate, d.EmpiricalGlitchRate, d.BoundGlitch,
				d.TP50, d.TP99, d.TP999)
		}
	}
	// The SLO audit's verdict: windowed measured tails against the bounds
	// as error budgets, with the alert state each target ended in.
	if st := srv.SLOStatus(); st.Enabled {
		fmt.Println()
		fmt.Printf("slo audit (windows %d/%d rounds, burn threshold %.1fx):\n",
			st.FastWindow, st.SlowWindow, st.BurnThreshold)
		for _, t := range st.Targets {
			fmt.Printf("  %-7s budget %10.3e  state %-8s  fired %d  resolved %d",
				t.Target, t.Budget, t.State, t.FiredTotal, t.ResolvedTotal)
			for _, w := range t.Windows {
				fmt.Printf("  %s %.3e (burn %.2fx)", w.Window, w.Measured, w.Burn)
			}
			fmt.Println()
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
