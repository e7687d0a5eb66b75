// Command benchmark is the system benchmark of the mzqos server: it builds
// the engines the way cmd/mzserver wires them, drives seeded, pre-generated
// arrivals through Open → Step from one goroutine, and reports end-to-end
// and per-layer metrics by name (see README.md and ../BENCHMARK.json).
//
// One workload (last stdout line is the result object); run.sh turns the
// benchmark driver's --seconds S into -rounds-factor S/10:
//
//	benchmark -workload steady-1x4 -seed 42 -rounds-factor 1 -trace 0
//
// The full set — five untraced runs, then the traced runs and the Step cost
// ladder — printed as a table and written to benchmark/out/results.json:
//
//	benchmark -all [-seed 42] [-rounds-factor 1]
//
// Two result files held against each metric's direction and bound:
//
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Schema       int     `json:"schema"`
	Seed         uint64  `json:"seed"`
	RoundsFactor float64 `json:"rounds_factor"`
	NumCPU       int     `json:"num_cpu"`
	GoVersion    string  `json:"go_version"`
	// Workloads is in the fixed workload order.
	Workloads []*workloadReport `json:"workloads"`
}

// outDir holds the result and span files, relative to the repository root
// run.sh starts the driver in.
const outDir = "benchmark/out"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: "+workloadNames())
		seed         = flag.Uint64("seed", 42, "workload seed (7 is held out for later claims)")
		traced       = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		factor       = flag.Float64("rounds-factor", 1, "one common scale on every workload's round counts")
		all          = flag.Bool("all", false, "run the full set: every workload untraced, then traced, then the ladder")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if !(*factor > 0) {
		fatalf("rounds factor must be positive")
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *all:
		os.Exit(runAll(*seed, *factor))
	case *workloadName != "":
		spec := findWorkload(*workloadName)
		if spec == nil {
			fatalf("unknown workload %q (have %s)", *workloadName, workloadNames())
		}
		os.Exit(runOne(spec, *seed, *factor, *traced != 0))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// runOne is the driver's entry: one workload, one of the two invocations,
// and as the last line of stdout the result object.
func runOne(spec *workloadSpec, seed uint64, factor float64, traced bool) int {
	var rep *workloadReport
	var err error
	runtime.GOMAXPROCS(spec.procs())
	if traced {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			rep, err = runTraced(spec, seed, factor, laps, outDir)
		}
	} else {
		rep, err = runUntraced(spec, seed, factor, laps)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
		return 1
	}
	printHeader(seed, factor)
	printReport(os.Stdout, rep)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, def := range metricDefs {
		if def.traced() != traced {
			continue
		}
		mv, ok := rep.Metrics[def.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured\n", spec.Name, def.Name)
			return 1
		}
		out.Metrics[def.Name] = value{mv.Value, mv.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runAll runs the full set sequentially and writes the result file. The
// exit code is non-zero when any check failed.
func runAll(seed uint64, factor float64) int {
	results := filepath.Join(outDir, "results.json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	rf := &resultFile{
		Schema: 1, Seed: seed, RoundsFactor: factor,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	printHeader(seed, factor)
	for _, spec := range workloads {
		runtime.GOMAXPROCS(spec.procs())
		rep, err := runUntraced(spec, seed, factor, laps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
			return 1
		}
		fmt.Printf("%-12s untraced: %d laps of %d rounds, digest %s, %d ops, %d failed\n", spec.Name, rep.Laps, rep.Rounds, rep.SimDigest, rep.Attempted, rep.Failed)
		rf.Workloads = append(rf.Workloads, rep)
	}
	failed := 0
	for i, spec := range workloads {
		runtime.GOMAXPROCS(spec.procs())
		tr, err := runTraced(spec, seed, factor, laps, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
			return 1
		}
		fmt.Printf("%-12s traced:   %d rounds, digest %s, %d ops, %d failed\n", spec.Name, tr.TracedRounds, tr.TracedSimDigest, tr.Attempted, tr.Failed)
		rep := rf.Workloads[i]
		rep.merge(tr)
		failed += rep.Failed
	}
	fmt.Println()
	for _, rep := range rf.Workloads {
		printReport(os.Stdout, rep)
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = os.WriteFile(results, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", results, err)
		return 1
	}
	fmt.Printf("results: %s\n", results)
	if failed > 0 {
		fmt.Printf("FAILED: %d operations or checks failed\n", failed)
		return 1
	}
	return 0
}

// merge adds the traced invocation's per-layer metrics to an untraced
// report. End-to-end metrics keep the full-length untraced values.
func (rep *workloadReport) merge(tr *workloadReport) {
	for name, mv := range tr.Metrics {
		if _, ok := rep.Metrics[name]; !ok {
			rep.Metrics[name] = mv
		}
	}
	rep.TracedRounds, rep.TracedSimDigest, rep.SpanFile = tr.TracedRounds, tr.TracedSimDigest, tr.SpanFile
	rep.absorb(tr.tally)
}

func printHeader(seed uint64, factor float64) {
	fmt.Printf("mzqos system benchmark: seed %d, rounds factor %g, %d CPUs, %s\n",
		seed, factor, runtime.NumCPU(), runtime.Version())
}

// printReport prints one workload's metrics in table order: name, value,
// unit, direction, bound, and the spread the value was read from.
func printReport(w *os.File, rep *workloadReport) {
	fmt.Fprintf(w, "== %s (seed %d, factor %g, GOMAXPROCS %d):", rep.Workload, rep.Seed, rep.Factor, rep.GOMAXPROCS)
	if rep.Laps > 0 {
		fmt.Fprintf(w, " %d laps of %d untraced rounds,", rep.Laps, rep.Rounds)
	}
	if rep.TracedRounds > 0 {
		fmt.Fprintf(w, " %d traced rounds,", rep.TracedRounds)
	}
	fmt.Fprintf(w, " each after %d warm-up; ops_attempted %d, ops_failed %d\n", rep.Warmup, rep.Attempted, rep.Failed)
	if rep.SimDigest != "" {
		fmt.Fprintf(w, "   sim_digest %s\n", rep.SimDigest)
	}
	if rep.TracedSimDigest != "" {
		fmt.Fprintf(w, "   traced sim_digest %s (equals its untraced baseline unless a failure says otherwise)\n", rep.TracedSimDigest)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "   metric\tvalue\tunit\tbetter\tbound\tq1\tq3\tn\tspread")
	for i := range metricDefs {
		def := &metricDefs[i]
		mv, ok := rep.Metrics[def.Name]
		if !ok || !def.appliesTo(rep.Workload) {
			continue
		}
		bound := def.boundString()
		if def.Exact {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%s\t%s\texact\t\t\t\n", def.Name, mv.Value, mv.Unit, mv.Better, bound)
			continue
		}
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%s\t%s\t%.6g\t%.6g\t%d\t%.3f\n", def.Name, mv.Value, mv.Unit, mv.Better, bound, mv.Q1, mv.Q3, mv.N, mv.Spread)
	}
	tw.Flush()
}
