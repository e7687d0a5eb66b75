package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runMain runs mzserver's main in this process with args and returns what
// it printed to stdout and to stderr.
func runMain(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	return captureOutput(t, func() {
		oldArgs, oldFlags := os.Args, flag.CommandLine
		defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
		os.Args = append([]string{"mzserver"}, args...)
		flag.CommandLine = flag.NewFlagSet("mzserver", flag.ContinueOnError)
		main()
	})
}

// captureOutput returns what run printed to os.Stdout and os.Stderr.
func captureOutput(t *testing.T, run func()) (stdout, stderr string) {
	t.Helper()
	var got [2]chan string
	var ws [2]*os.File
	for i := range got {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		got[i], ws[i] = make(chan string), w
		go func(c chan string) {
			b, _ := io.ReadAll(r)
			c <- string(b)
		}(got[i])
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = ws[0], ws[1]
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	run()
	ws[0].Close()
	ws[1].Close()
	return <-got[0], <-got[1]
}

var (
	finalLine    = regexp.MustCompile(`final: (\d+) streams admitted, (\d+) rejected \([^)]*\), (\d+) completed`)
	glitchesLine = regexp.MustCompile(`glitches +(\d+)`)
)

// runCounts reads admitted, rejected and completed streams off a run's
// final line, and the glitches off its last progress line.
func runCounts(t *testing.T, out string) [4]int {
	t.Helper()
	m := finalLine.FindStringSubmatch(out)
	g := glitchesLine.FindAllStringSubmatch(out, -1)
	if m == nil || g == nil {
		t.Fatalf("no final or progress line in:\n%s", out)
	}
	var c [4]int
	for i, s := range append(m[1:], g[len(g)-1][1]) {
		c[i], _ = strconv.Atoi(s)
	}
	return c
}

// oneShardRuns are flag sets mzserver is pinned at, each with -log json,
// and the counts single-server mode printed at them before every mode
// became a coordinator of -shards shards: admitted, rejected and completed
// streams, and glitches at the last progress line.
var oneShardRuns = []struct {
	name string
	args []string
	want [4]int
}{
	{"defaults", nil, [4]int{226, 236, 122, 1}},
	{"arrivals-2", []string{"-arrivals", "2"}, [4]int{235, 963, 131, 1}},
	{"faulted", []string{"-disks", "2", "-arrivals", "2", "-degrade",
		"-faults", "errors:disk=all,from=0,prob=0.01,retries=2"}, [4]int{120, 1078, 68, 0}},
}

// TestOneShardMatchesSingleServer pins the default one-shard run against
// the single-server mode it replaced, at the same seed and flags: the
// streams admitted, rejected and completed, the glitches, and one reject
// record on -log per rejected stream.
func TestOneShardMatchesSingleServer(t *testing.T) {
	for _, tc := range oneShardRuns {
		t.Run(tc.name, func(t *testing.T) {
			out, log := runMain(t, append([]string{"-log", "json"}, tc.args...)...)
			if got := runCounts(t, out); got != tc.want {
				t.Errorf("one shard %v; single-server mode printed %v", got, tc.want)
			}
			if n := strings.Count(log, `"msg":"reject"`); n != tc.want[1] {
				t.Errorf("%d reject records, want one per rejected stream (%d)", n, tc.want[1])
			}
		})
	}
}

// TestCheckOptions holds the shard flags to what they can mean: at least
// one shard, and a -fault-shard that is -1 (every shard) or names one.
func TestCheckOptions(t *testing.T) {
	for _, tc := range []struct {
		shards, faultShard int
		ok                 bool
	}{
		{1, -1, true},
		{1, 0, true},
		{3, 2, true},
		{2, 5, false},
		{2, 2, false},
		{1, -2, false},
		{0, -1, false},
		{-1, -1, false},
	} {
		if err := checkOptions(tc.shards, tc.faultShard); (err == nil) != tc.ok {
			t.Errorf("checkOptions(-shards %d, -fault-shard %d) = %v, want ok %v", tc.shards, tc.faultShard, err, tc.ok)
		}
	}
}
