package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planted is internal/a of the module TestReportsPlantedDeadExport checks:
// one declaration of each kind the checker must tell apart.
const planted = `package a

// T is live: cmd builds one.
type T struct{}

// FromCmd is called from cmd/: live.
func FromCmd() T { return T{} }

// OnlyTested is mentioned by its own test and by a script: dead.
func OnlyTested() {}

// ViaInterface is reached only through b.Doer: live.
func (T) ViaInterface() {}

// Undone implements b.Doer.Undone, which nobody calls through: dead.
func (T) Undone() {}

// String is reached only through fmt.Stringer: live.
func (T) String() string { return "t" }

// Len shares its name with U.Len, which cmd calls, but T is no
// sort.Interface: dead.
func (T) Len() int { return 0 }

// U is sorted by cmd, which also calls its Len: Less and Swap are reached
// only through sort.Interface.
type U []int

func (u U) Len() int           { return len(u) }
func (u U) Less(i, j int) bool { return u[i] < u[j] }
func (u U) Swap(i, j int)      { u[i], u[j] = u[j], u[i] }

// Oracle is dead and allowlisted; what it calls is live through it.
func Oracle() { oracleHelper() }

func oracleHelper() {}

// FromBench is called only from benchmark/: live.
func FromBench() {}

// ViaFacade is called only by a method of the facade's API: live.
func ViaFacade() {}

// unexported is called only by the test: dead.
func unexported() {}

// Dead, Limit and Default are an exported type, const and var nobody uses.
type Dead struct{}

const Limit = 3

var Default = 2

// Orphan is used only by its own method.
type Orphan struct{ next *Orphan }

func (o *Orphan) Last() *Orphan {
	if o.next == nil {
		return o
	}
	return o.next.Last()
}

// Opts is built by cmd, which reads every field through Use: a field is
// live only where live code writes it.
type Opts struct {
	// TestOnly is set only by the test: dead.
	TestOnly int
	// Never is set by nobody: dead.
	Never int
	// FromExample is set only by the facade's Example: live.
	FromExample int
	// Counted is written only by an increment: live.
	Counted int
	// Addressed is written only through its address: live.
	Addressed int
	// Nested is written only through its own field: live, and so is G.
	Nested Inner
}

type Inner struct{ G int }

func Use(o Opts) int { return o.TestOnly + o.Never + o.FromExample + o.Counted + o.Addressed + o.Nested.G }

func Bump(o *Opts) {
	o.Counted++
	p := &o.Addressed
	*p = 1
	o.Nested.G = 2
}

// Config is defaulted by cmd through Defaults. withDefaults storing a
// constant into its own receiver is no writer, so N, which otherwise only
// the test sets, is dead; M takes a computed value there and is live.
type Config struct{ N, M int }

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 4
	}
	c.M = 2 * c.N
	return c
}

func Defaults(c Config) int { c = c.withDefaults(); return c.N + c.M }

// Sum is added to by cmd: Count, incremented only in Sum's own method, is
// live.
type Sum struct{ Count int }

func (s *Sum) Add() { s.Count++ }

// Chained is called only by walk, which nothing but itself calls.
func Chained() {}

func walk(n int) int {
	if n == 0 {
		Chained()
		return 0
	}
	return walk(n - 1)
}
`

// facade is the planted module's root package: its API, which is a root,
// and two funcs, which are not.
const facade = `package planted

import "planted/internal/a"

// Client is the facade's API.
type Client struct{}

// Opts re-exports a.Opts.
type Opts = a.Opts

func (Client) Fetch() { a.ViaFacade() }

// Callerless is a facade func nothing calls: dead.
func Callerless() {}

// FromExample is called only by ExampleFromExample: live.
func FromExample() {}
`

// TestReportsPlantedDeadExport runs the checker over a small module and
// holds it to reporting exactly the dead declarations and the stale
// allowlist lines. Each line it gets wrong is its own failure.
func TestReportsPlantedDeadExport(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":          "module planted\n\ngo 1.22\n",
		"internal/a/a.go": planted,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\n" +
			"func TestOnlyTested(t *testing.T) { OnlyTested(); Oracle(); unexported(); walk(1); _ = T{}.Len(); _ = Opts{TestOnly: 1}; _ = Config{N: 1} }\n",
		"internal/b/b.go": "package b\n\ntype Doer interface {\n\tViaInterface()\n\tUndone()\n}\n\nfunc Do(d Doer) { d.ViaInterface() }\n",
		"cmd/x/main.go": "package main\n\nimport (\n\t\"fmt\"\n\t\"sort\"\n\n\t\"planted/internal/a\"\n\t\"planted/internal/b\"\n)\n\n" +
			"func main() {\n\tt := a.FromCmd()\n\tb.Do(t)\n\tfmt.Println(t)\n\tu := a.U{2, 1}\n\tsort.Sort(u)\n\tfmt.Println(u.Len())\n" +
			"\tvar o a.Opts\n\ta.Bump(&o)\n\tfmt.Println(a.Use(o))\n" +
			"\tvar s a.Sum\n\ts.Add()\n\tfmt.Println(s.Count, a.Defaults(a.Config{}))\n}\n",
		"benchmark/main.go":    "package main\n\nimport \"planted/internal/a\"\n\nfunc main() { a.FromBench() }\n",
		"planted.go":           facade,
		"example_test.go":      "package planted_test\n\nimport \"planted\"\n\nfunc ExampleFromExample() {\n\tplanted.FromExample()\n\t_ = planted.Opts{FromExample: 1}\n\t// Output:\n}\n",
		"scripts/tool/main.go": "package main\n\nimport \"planted/internal/a\"\n\nfunc main() { a.OnlyTested() }\n",
		allowFile:              "# comment\na.Oracle  the oracle for something that stays\na.FromCmd  has a caller\na.Gone  was deleted long ago\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	n, err := run(root, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Each finding is the printed name and the declaration it is at.
	var want []string
	for _, c := range [][2]string{
		{"a.Chained", "func Chained"},
		{"a.Config.N", "Config struct{ N"},
		{"a.Dead", "type Dead"},
		{"a.Default", "var Default"},
		{"a.Limit", "const Limit"},
		{"a.OnlyTested", "func OnlyTested"},
		{"a.Opts.Never", "Never int"},
		{"a.Opts.TestOnly", "TestOnly int"},
		{"a.Orphan", "type Orphan"},
		{"a.Orphan.Last", "func (o *Orphan) Last"},
		{"a.T.Len", "func (T) Len"},
		{"a.T.Undone", "func (T) Undone"},
		{"a.unexported", "func unexported"},
		{"a.walk", "func walk"},
	} {
		line := strings.Count(planted[:strings.Index(planted, c[1])], "\n") + 1
		want = append(want, fmt.Sprintf("%s internal/a/a.go:%d", c[0], line))
	}
	callerless := strings.Count(facade[:strings.Index(facade, "func Callerless")], "\n") + 1
	want = append(want, "b.Doer.Undone internal/b/b.go:5",
		fmt.Sprintf("planted.Callerless planted.go:%d", callerless),
		"a.FromCmd "+allowFile+": allowlisted, but not dead",
		"a.Gone "+allowFile+": allowlisted, but not dead")
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
		if !gotSet[w] {
			t.Errorf("not reported: %s", w)
		}
	}
	for _, g := range got {
		if !wantSet[g] {
			t.Errorf("reported, but live: %s", g)
		}
	}
	if !t.Failed() && (out.String() != strings.Join(want, "\n")+"\n" || n != len(want)) {
		t.Errorf("run reported %d findings in this order:\n%swant %d:\n%s", n, out.String(), len(want), strings.Join(want, "\n"))
	}
}
