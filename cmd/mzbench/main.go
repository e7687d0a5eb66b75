// Command mzbench runs the admission-path benchmark suite and appends the
// results to a machine-readable trajectory file (BENCH_admission.json by
// default), so successive PRs can prove the hot paths did not regress.
// Every entry records the op name, ns/op, B/op, allocs/op, the git
// revision, and the date; the summary block reports the speedup of the
// optimized admission path over the retained seed implementation, both
// measured in the same run on the same machine, plus the model package's
// solver telemetry (chain cache hit ratio, warm/cold Chernoff solve
// counts) captured over the whole suite. The file format is documented in
// BENCH_SCHEMA.md.
//
// Usage:
//
//	go run ./cmd/mzbench [-out BENCH_admission.json] [-v]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mzqos/internal/benchcases"
	"mzqos/internal/model"
)

// opResult is one benchmark measurement in the trajectory file. Each
// entry carries its own gomaxprocs (not just the run header) because
// parallel ops — cluster admission above all — are meaningless without
// the parallelism they ran at, and future runs may pin ops differently.
type opResult struct {
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	Gomaxprocs  int     `json:"gomaxprocs"`
}

// solverTelemetry is the model package's solver-counter block, captured
// over the whole measured suite. It explains a run's speedups: a hot chain
// (high cache_hit_ratio, mostly warm solves) is what the fast path buys.
type solverTelemetry struct {
	ChainHits       int64   `json:"chain_hits"`
	ChainExtensions int64   `json:"chain_extensions"`
	WarmSolves      int64   `json:"warm_solves"`
	ColdSolves      int64   `json:"cold_solves"`
	SearchProbes    int64   `json:"search_probes"`
	LinearFallbacks int64   `json:"linear_fallbacks"`
	CacheHitRatio   float64 `json:"cache_hit_ratio"`
}

// sloBlock is the v4 SLO-audit summary: the audit's two hot-path costs
// pulled out of the benchmark list so trajectory consumers can track the
// observability overhead without knowing the op names.
type sloBlock struct {
	ObserveNsPerOp      float64 `json:"observe_ns_per_op"`
	EvaluateNsPerOp     float64 `json:"evaluate_ns_per_op"`
	ObserveAllocsPerOp  int64   `json:"observe_allocs_per_op"`
	EvaluateAllocsPerOp int64   `json:"evaluate_allocs_per_op"`
}

// run is one mzbench invocation; the trajectory file holds a list of them.
// The format is documented in BENCH_SCHEMA.md.
type run struct {
	Schema     string             `json:"schema"`
	Date       string             `json:"date"`
	GitRev     string             `json:"git_rev"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmarks []opResult         `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	Telemetry  *solverTelemetry   `json:"telemetry,omitempty"`
	SLO        *sloBlock          `json:"slo,omitempty"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// speedupPairs names the seed-vs-fast ratios the summary reports: each
// value is ns/op(baseline) divided by ns/op(optimized). The trace pair is
// an overhead ratio rather than a speedup — Step with the flight recorder
// on over Step with it off — and the observability PR's claim is that it
// stays below 1.05 (under 5% tracing overhead on the round hot path).
var speedupPairs = []struct{ name, baseline, optimized string }{
	{"nmax_error_warm_vs_seed_cold", "NMaxError/paperM/seed-cold", "NMaxError/paperM/fast-warm"},
	{"nmax_error_cold_vs_seed_cold", "NMaxError/paperM/seed-cold", "NMaxError/paperM/fast-cold"},
	{"build_table_warm_vs_seed_cold", "BuildTable/grid/seed-cold", "BuildTable/grid/fast-warm"},
	{"build_table_cold_vs_seed_cold", "BuildTable/grid/seed-cold", "BuildTable/grid/fast-cold"},
	{"chernoff_solve_warm_vs_cold", "ChernoffSolve/n26/cold", "ChernoffSolve/n26/warm"},
	{"step_trace_on_vs_off_overhead", "ServerStep/paperLoad/trace-on", "ServerStep/paperLoad/trace-off"},
}

func main() {
	out := flag.String("out", "BENCH_admission.json", "trajectory file to append this run to")
	verbose := flag.Bool("v", false, "print each result as it is measured")
	quick := flag.Bool("quick", false,
		"smoke mode: run only the round-path benchmarks (ClusterAdmit, SLO audit, journal, history,\nServerStep), gate them on their latency/allocation budgets, validate the trajectory file against BENCH_SCHEMA.md, and exit without appending")
	flag.Parse()

	if *quick {
		if err := quickSmoke(*out, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "mzbench -quick: %v\n", err)
			os.Exit(1)
		}
		return
	}

	model.ResetTelemetry()
	r := run{
		Schema:     schemaVersion,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Speedups:   make(map[string]float64),
	}
	nsByOp := make(map[string]float64)
	record := func(name string, res testing.BenchmarkResult) {
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		nsByOp[name] = ns
		r.Benchmarks = append(r.Benchmarks, opResult{
			Op:          name,
			NsPerOp:     ns,
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			Iterations:  res.N,
			Gomaxprocs:  runtime.GOMAXPROCS(0),
		})
		if *verbose {
			fmt.Printf("%-34s %12.1f ns/op %8d B/op %6d allocs/op\n",
				name, ns, res.AllocedBytesPerOp(), res.AllocsPerOp())
		}
	}
	var pair []benchcases.Case
	for _, c := range benchcases.Suite() {
		if strings.HasPrefix(c.Name, "ServerStep/") {
			pair = append(pair, c)
			continue
		}
		record(c.Name, testing.Benchmark(c.Bench))
	}
	// The Step tracing pair claims a small ratio (<5% overhead), far below
	// the run-to-run noise of a sequential measurement on a busy machine.
	// Measure the two variants in interleaved repetitions — so slow machine
	// drift hits both sides equally — and record each op's median.
	medians := measureInterleaved(pair, 5)
	for _, c := range pair { // suite order, not map order
		record(c.Name, medians[c.Name])
	}
	for _, p := range speedupPairs {
		base, opt := nsByOp[p.baseline], nsByOp[p.optimized]
		if base > 0 && opt > 0 {
			r.Speedups[p.name] = base / opt
		}
	}
	r.SLO = sloSummary(r.Benchmarks)
	mt := model.Telemetry()
	r.Telemetry = &solverTelemetry{
		ChainHits:       mt.ChainHits,
		ChainExtensions: mt.ChainExtensions,
		WarmSolves:      mt.WarmSolves,
		ColdSolves:      mt.ColdSolves,
		SearchProbes:    mt.SearchProbes,
		LinearFallbacks: mt.LinearFallbacks,
		CacheHitRatio:   mt.CacheHitRatio(),
	}

	runs, err := readTrajectory(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mzbench: %v\n", err)
		os.Exit(1)
	}
	runs = append(runs, r)
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mzbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mzbench: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("mzbench @ %s (%s, GOMAXPROCS=%d): %d ops -> %s\n",
		r.GitRev, r.GoVersion, r.GOMAXPROCS, len(r.Benchmarks), *out)
	for _, p := range speedupPairs {
		if v, ok := r.Speedups[p.name]; ok {
			fmt.Printf("  %-32s %8.1fx\n", p.name, v)
		}
	}
	fmt.Printf("  solver: %.1f%% chain hit ratio, %d warm / %d cold solves, %d search probes\n",
		100*r.Telemetry.CacheHitRatio, r.Telemetry.WarmSolves, r.Telemetry.ColdSolves,
		r.Telemetry.SearchProbes)
}

// measureInterleaved benchmarks the given cases reps times in alternation
// (case A, case B, case A, ...) and returns the median-ns/op result per
// case, so a ratio between two of them reflects the code difference
// rather than whichever half of the wall-clock window ran hotter.
func measureInterleaved(cases []benchcases.Case, reps int) map[string]testing.BenchmarkResult {
	byCase := make(map[string][]testing.BenchmarkResult)
	for i := 0; i < reps; i++ {
		for _, c := range cases {
			byCase[c.Name] = append(byCase[c.Name], testing.Benchmark(c.Bench))
		}
	}
	out := make(map[string]testing.BenchmarkResult, len(cases))
	for name, results := range byCase {
		sort.Slice(results, func(i, j int) bool {
			return float64(results[i].T.Nanoseconds())/float64(results[i].N) <
				float64(results[j].T.Nanoseconds())/float64(results[j].N)
		})
		out[name] = results[len(results)/2]
	}
	return out
}

// readTrajectory loads the existing run list, tolerating a missing file so
// the first run bootstraps the trajectory.
func readTrajectory(path string) ([]run, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var runs []run
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s is not a mzbench trajectory: %w", path, err)
	}
	return runs, nil
}

// schemaVersion is the trajectory schema this binary writes. v3 added a
// per-entry gomaxprocs field to every benchmark measurement; v4 added
// the slo block summarizing the guarantee audit's hot-path costs.
const schemaVersion = "mzbench/v4"

// Cluster-admission budget the quick smoke gates on (the cluster PR's
// acceptance criterion: reservations stay a microsecond-scale hot path).
// The suite builds its admit coordinators with Migrate enabled, so the
// warm budget doubles as the migration PR's criterion: migration support
// must add nothing — no time, no allocations — to the admission fast path.
const (
	clusterWarmOp       = "ClusterAdmit/16shards/warm"
	clusterWarmBudgetNs = 10_000 // 10 µs
	clusterMigrateOp    = "ClusterMigrate/2shards/failover"
)

// SLO-audit budgets the quick smoke gates on (the observability PR's
// acceptance criterion: auditing every sweep costs well under the trace
// budget and never allocates in steady state).
const (
	sloObserveOp       = "SLOObserve/4disks/steady"
	sloEvaluateOp      = "SLOEvaluate/4disks/steady"
	sloObserveBudgetNs = 200
)

// Event-journal budget the quick smoke gates on (the forensics PR's
// acceptance criterion: appending a timeline event is cheap enough to sit
// on the per-glitch path of Step).
const (
	journalAppendOp       = "JournalAppend/ring/steady"
	journalAppendBudgetNs = 100
)

// Embedded-history sampler budget the quick smoke gates on (the metrics
// history PR's acceptance criterion: recording every registered series
// into the in-process time-series store once per round stays a
// sub-microsecond, zero-allocation tax on Step).
const (
	historySampleOp       = "HistorySample/32series/steady"
	historySampleBudgetNs = 500
)

// Step allocation budget the quick smoke gates on: an allocation count,
// not a wall-clock figure, so it holds on any host. The one allocation
// is RoundReport.Disks, which callers keep.
const (
	serverStepOp           = "ServerStep/paperLoad/trace-off"
	serverStepBudgetAllocs = 1
)

// sloSummary pulls the v4 slo block out of the measured benchmark list;
// nil when the suite no longer contains the audit ops.
func sloSummary(benchmarks []opResult) *sloBlock {
	var blk sloBlock
	found := 0
	for _, b := range benchmarks {
		switch b.Op {
		case sloObserveOp:
			blk.ObserveNsPerOp = b.NsPerOp
			blk.ObserveAllocsPerOp = b.AllocsPerOp
			found++
		case sloEvaluateOp:
			blk.EvaluateNsPerOp = b.NsPerOp
			blk.EvaluateAllocsPerOp = b.AllocsPerOp
			found++
		}
	}
	if found != 2 {
		return nil
	}
	return &blk
}

// quickSmoke is the CI `make bench-quick` entry: run just the
// ClusterAdmit, ClusterMigrate, SLO-audit, JournalAppend, HistorySample,
// and untraced ServerStep benchmarks (seconds, not the full suite's
// minutes), fail if the warm reservation path — measured with Migrate
// enabled — or the audit's observe/evaluate paths or the per-round
// samplers blow their latency or allocation budgets or Step its
// allocation budget, then validate the recorded trajectory
// file against BENCH_SCHEMA.md so schema drift fails the build instead of
// corrupting the trajectory. ClusterMigrate has no 0-alloc budget (it
// runs inside Step and allocates by design); it is here so a regression
// that breaks failover placement fails the smoke. Nothing is appended to
// the file.
func quickSmoke(path string, verbose bool) error {
	ranWarm, ranMigrate, ranObserve, ranEvaluate, ranJournal, ranHistory, ranStep := false, false, false, false, false, false, false
	for _, c := range benchcases.Suite() {
		if !strings.HasPrefix(c.Name, "ClusterAdmit/") &&
			!strings.HasPrefix(c.Name, "ClusterMigrate/") &&
			c.Name != sloObserveOp && c.Name != sloEvaluateOp &&
			c.Name != journalAppendOp && c.Name != historySampleOp && c.Name != serverStepOp {
			continue
		}
		res := testing.Benchmark(c.Bench)
		if res.N == 0 {
			return fmt.Errorf("%s did not run", c.Name)
		}
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		if verbose {
			fmt.Printf("%-34s %12.1f ns/op %8d B/op %6d allocs/op (GOMAXPROCS=%d)\n",
				c.Name, ns, res.AllocedBytesPerOp(), res.AllocsPerOp(), runtime.GOMAXPROCS(0))
		}
		switch c.Name {
		case clusterWarmOp:
			ranWarm = true
			if ns >= clusterWarmBudgetNs {
				return fmt.Errorf("%s measured %.1f ns/op, budget is <%d ns/op", c.Name, ns, clusterWarmBudgetNs)
			}
			if res.AllocsPerOp() != 0 {
				return fmt.Errorf("%s allocates %d/op, budget is 0", c.Name, res.AllocsPerOp())
			}
		case clusterMigrateOp:
			ranMigrate = true
		case sloObserveOp:
			ranObserve = true
			if ns >= sloObserveBudgetNs {
				return fmt.Errorf("%s measured %.1f ns/op, budget is <%d ns/op", c.Name, ns, sloObserveBudgetNs)
			}
			if res.AllocsPerOp() != 0 {
				return fmt.Errorf("%s allocates %d/op, budget is 0", c.Name, res.AllocsPerOp())
			}
		case sloEvaluateOp:
			ranEvaluate = true
			if res.AllocsPerOp() != 0 {
				return fmt.Errorf("%s allocates %d/op, budget is 0", c.Name, res.AllocsPerOp())
			}
		case journalAppendOp:
			ranJournal = true
			if ns >= journalAppendBudgetNs {
				return fmt.Errorf("%s measured %.1f ns/op, budget is <%d ns/op", c.Name, ns, journalAppendBudgetNs)
			}
			if res.AllocsPerOp() != 0 {
				return fmt.Errorf("%s allocates %d/op, budget is 0", c.Name, res.AllocsPerOp())
			}
		case historySampleOp:
			ranHistory = true
			if ns >= historySampleBudgetNs {
				return fmt.Errorf("%s measured %.1f ns/op, budget is <%d ns/op", c.Name, ns, historySampleBudgetNs)
			}
			if res.AllocsPerOp() != 0 {
				return fmt.Errorf("%s allocates %d/op, budget is 0", c.Name, res.AllocsPerOp())
			}
		case serverStepOp:
			ranStep = true
			if res.AllocsPerOp() > serverStepBudgetAllocs {
				return fmt.Errorf("%s allocates %d/op, budget is %d", c.Name, res.AllocsPerOp(), serverStepBudgetAllocs)
			}
		}
	}
	if !ranStep {
		return fmt.Errorf("suite no longer contains %s", serverStepOp)
	}
	if !ranWarm {
		return fmt.Errorf("suite no longer contains %s", clusterWarmOp)
	}
	if !ranMigrate {
		return fmt.Errorf("suite no longer contains %s", clusterMigrateOp)
	}
	if !ranObserve || !ranEvaluate {
		return fmt.Errorf("suite no longer contains the SLO audit ops (%s, %s)", sloObserveOp, sloEvaluateOp)
	}
	if !ranJournal {
		return fmt.Errorf("suite no longer contains %s", journalAppendOp)
	}
	if !ranHistory {
		return fmt.Errorf("suite no longer contains %s", historySampleOp)
	}
	runs, err := readTrajectory(path)
	if err != nil {
		return err
	}
	if err := validateRuns(runs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("mzbench -quick: ClusterAdmit (migrate on), ClusterMigrate, SLO audit, JournalAppend, HistorySample, and ServerStep within budget; %s valid (%d runs)\n", path, len(runs))
	return nil
}

// validateRuns checks a trajectory against BENCH_SCHEMA.md: known schema
// versions, well-formed headers, positive measurements, from v3 on a
// per-entry gomaxprocs on every benchmark, and from v4 on a well-formed
// slo block when one is present.
func validateRuns(runs []run) error {
	for i, r := range runs {
		switch r.Schema {
		case "mzbench/v1", "mzbench/v2", "mzbench/v3", "mzbench/v4":
		default:
			return fmt.Errorf("run %d: unknown schema %q", i, r.Schema)
		}
		if r.Schema == "mzbench/v4" && r.SLO != nil {
			if !(r.SLO.ObserveNsPerOp > 0) || !(r.SLO.EvaluateNsPerOp > 0) {
				return fmt.Errorf("run %d: v4 slo block has non-positive ns/op: %+v", i, *r.SLO)
			}
			if r.SLO.ObserveAllocsPerOp < 0 || r.SLO.EvaluateAllocsPerOp < 0 {
				return fmt.Errorf("run %d: v4 slo block has negative allocs: %+v", i, *r.SLO)
			}
		}
		if _, err := time.Parse(time.RFC3339, r.Date); err != nil {
			return fmt.Errorf("run %d: bad date %q: %w", i, r.Date, err)
		}
		if r.GitRev == "" || r.GoVersion == "" {
			return fmt.Errorf("run %d: missing git_rev or go_version", i)
		}
		if r.GOMAXPROCS < 1 {
			return fmt.Errorf("run %d: gomaxprocs %d", i, r.GOMAXPROCS)
		}
		if len(r.Benchmarks) == 0 {
			return fmt.Errorf("run %d: no benchmarks", i)
		}
		for _, b := range r.Benchmarks {
			if b.Op == "" || !(b.NsPerOp > 0) || b.Iterations < 1 {
				return fmt.Errorf("run %d: malformed benchmark entry %+v", i, b)
			}
			if b.BytesPerOp < 0 || b.AllocsPerOp < 0 {
				return fmt.Errorf("run %d: negative allocation stats in %q", i, b.Op)
			}
			if (r.Schema == "mzbench/v3" || r.Schema == "mzbench/v4") && b.Gomaxprocs < 1 {
				return fmt.Errorf("run %d: %q lacks the v3+ per-entry gomaxprocs", i, b.Op)
			}
		}
		for name, v := range r.Speedups {
			if !(v > 0) {
				return fmt.Errorf("run %d: non-positive speedup %q = %v", i, name, v)
			}
		}
	}
	return nil
}
