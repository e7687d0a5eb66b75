package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one metric on one workload between two result files.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// informationalBound is the threshold applied to per-layer timings, which
// fix no regression bound of their own.
const informationalBound = 0.10

// judge holds metric value b against a. An exact metric moves on any
// difference. A measured one moves when the medians differ by more than
// the bound; if either run's own spread is wider than the bound — or a
// per-layer figure is a single sample with no spread at all — the
// difference cannot be told from noise and the row is unresolved.
func judge(def *metricDef, a, b metricValue) (verdict string, change float64) {
	if a.Value == b.Value {
		return verdictSame, 0
	}
	change = (b.Value - a.Value) / math.Abs(a.Value)
	if a.Value == 0 {
		change = math.Inf(int(math.Copysign(1, b.Value)))
	}
	worsening := change
	if def.Better == higher {
		worsening = -change
	}
	bound := 0.0
	if !def.Exact {
		bound = def.Bound
		if bound == 0 {
			bound = informationalBound
		}
	}
	switch {
	case math.Abs(worsening) <= bound:
		return verdictSame, change
	case !def.Exact && (math.Max(a.Spread, b.Spread) > bound || !def.E2E && min(a.N, b.N) <= 1):
		return verdictUnresolved, change
	case worsening > 0:
		return verdictWorse, change
	default:
		return verdictBetter, change
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareResults prints one row per metric and workload and returns how
// many end-to-end rows got worse.
func compareResults(w *os.File, a, b *resultFile) (worse int) {
	if a.Seed != b.Seed || a.RoundsFactor != b.RoundsFactor {
		fmt.Fprintf(w, "note: seeds %d/%d, rounds factors %g/%g — exact metrics only repeat for equal seed and factor\n",
			a.Seed, b.Seed, a.RoundsFactor, b.RoundsFactor)
	}
	byName := map[string]*workloadReport{}
	for _, rep := range b.Workloads {
		byName[rep.Workload] = rep
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tspread a/b\tverdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(missing in b)\n", ra.Workload)
			continue
		}
		digest := verdictSame
		if ra.SimDigest != rb.SimDigest || ra.TracedSimDigest != rb.TracedSimDigest {
			digest = "changed"
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\t\t\t%s\n", ra.Workload, ra.SimDigest, rb.SimDigest, digest)
		for i := range metricDefs {
			def := &metricDefs[i]
			va, oka := ra.Metrics[def.Name]
			vb, okb := rb.Metrics[def.Name]
			if !oka || !okb || !def.appliesTo(ra.Workload) {
				continue
			}
			verdict, change := judge(def, va, vb)
			if def.E2E && verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%.3f/%.3f\t%s\n",
				ra.Workload, def.Name, va.Value, vb.Value, 100*change, def.boundString(), va.Spread, vb.Spread, verdict)
		}
	}
	tw.Flush()
	return worse
}

func runCompare(pathA, pathB string) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		files[i] = rf
	}
	if worse := compareResults(os.Stdout, files[0], files[1]); worse > 0 {
		fmt.Printf("%d end-to-end rows got worse\n", worse)
		return 1
	}
	return 0
}
