package journal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mzqos/internal/journal"
)

// emittedEvents is one event of every kind, filled as its emitter fills
// it (server.Server.event sets Round, Kind, Shard and the -1 sentinels).
func emittedEvents() []journal.Event {
	ev := func(kind journal.Kind) journal.Event {
		return journal.Event{Kind: kind, Shard: 2, Disk: -1, From: -1, To: -1}
	}
	var out []journal.Event
	add := func(e journal.Event) { out = append(out, e) }

	e := ev(journal.KindAdmit)
	e.Stream, e.Object, e.Value = 17, "clip-a", 2
	add(e)
	e.Detail = "import"
	add(e)
	e = ev(journal.KindReject)
	e.Object, e.Value, e.Detail = "clip-b", 26, "overload"
	add(e)
	e = ev(journal.KindReject) // the coordinator's
	e.Object, e.Detail = "clip-b", "every candidate shard full"
	add(e)
	e = ev(journal.KindEvict)
	e.Stream, e.Object = 18, "clip-c"
	add(e)
	e = ev(journal.KindGlitch)
	e.Value = 3
	add(e)
	for _, k := range []journal.Kind{journal.KindDegrade, journal.KindRestore, journal.KindRecalibrate} {
		e = ev(k)
		e.Disk, e.From, e.To = 1, 26, 6
		add(e)
	}
	e = ev(journal.KindDegrade)
	e.Disk, e.From, e.To, e.Detail = 1, 26, 0, "disk_failed"
	add(e)
	for _, k := range []journal.Kind{journal.KindFaultInject, journal.KindFaultClear} {
		e = ev(k)
		e.Disk, e.Detail = 3, "latency x2"
		add(e)
	}
	for _, k := range []journal.Kind{journal.KindSLOPending, journal.KindSLOFiring, journal.KindSLOResolved} {
		e = ev(k)
		e.Disk, e.From, e.To = 0, 1, 2
		e.Target, e.Value, e.Budget = "late", 0.0213, 0.0036
		if k == journal.KindSLOFiring {
			e.Detail = "binding k=27 b_late disk=0"
		}
		add(e)
	}
	e = ev(journal.KindFreeze)
	e.TraceSeq, e.Detail = 4711, "glitch"
	add(e)
	e = ev(journal.KindMigrate)
	e.Stream, e.Object, e.From, e.To, e.Value, e.Detail = 5, "clip-d", 1, 2, 1, "failover"
	add(e)
	e = ev(journal.KindFailover)
	e.Shard, e.Stream, e.Object, e.From = 1, 6, "clip-d", 1
	add(e)
	return out
}

// TestEventsReadBackEveryKind: every kind's event, filled as its emitters
// fill it, and again with each field at the limit of its slot, reads back
// through Events equal to what Append was handed, under the seq Append
// returned, while a seven-slot ring laps.
func TestEventsReadBackEveryKind(t *testing.T) {
	var in []journal.Event
	for _, e := range emittedEvents() {
		in = append(in, e)
		e.Round, e.Shard, e.Stream = math.MaxInt, math.MaxInt32, math.MaxInt64
		if e.Disk >= 0 {
			e.Disk = journal.MaxDisks - 1
		}
		if e.From >= 0 {
			e.From, e.To = math.MinInt32, math.MaxInt32
		}
		if e.TraceSeq != 0 {
			e.TraceSeq = math.MaxUint64
		}
		if e.Budget != 0 {
			e.Budget = math.SmallestNonzeroFloat64
		}
		in = append(in, e)
	}
	const capacity = 7
	j := journal.New(journal.Config{Capacity: capacity})
	var want []journal.Event
	for i, e := range in {
		e.Seq = 99 // Append does not read it
		seq := j.Append(&e)
		if seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
		e.Seq = seq
		want = append(want, e)
		if len(want) > capacity {
			want = want[1:]
		}
		if got := j.Events(journal.MatchAll()); !reflect.DeepEqual(got, want) {
			t.Fatalf("after appending %+v:\n got %+v\nwant %+v", e, got, want)
		}
	}
}

// TestNoEmitterSetsBothOfAPair: an event keeps Object and Target in one
// field, and Budget and TraceSeq in another, so no event the program
// builds may fill both of a pair. Every journal.Event a function of the
// program declares or composes is checked for the fields it sets.
func TestNoEmitterSetsBothOfAPair(t *testing.T) {
	pairs := [][2]string{{"Object", "Target"}, {"Budget", "TraceSeq"}}
	isEvent := func(x ast.Expr) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "journal" && sel.Sel.Name == "Event"
	}
	events := 0
	check := func(where string, set map[string]bool) {
		events++
		for _, p := range pairs {
			if set[p[0]] && set[p[1]] {
				t.Errorf("%s sets both %s and %s", where, p[0], p[1])
			}
		}
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				where := path + ":" + fn.Name.Name
				vars := map[string]map[string]bool{} // declared Events: fields set
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.ValueSpec:
						if isEvent(n.Type) {
							for _, name := range n.Names {
								vars[name.Name] = map[string]bool{}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								if v, ok := sel.X.(*ast.Ident); ok && vars[v.Name] != nil {
									vars[v.Name][sel.Sel.Name] = true
								}
							}
						}
					case *ast.CompositeLit:
						if isEvent(n.Type) {
							set := map[string]bool{}
							for _, elt := range n.Elts {
								if kv, ok := elt.(*ast.KeyValueExpr); ok {
									set[kv.Key.(*ast.Ident).Name] = true
								}
							}
							check(where, set)
						}
					}
					return true
				})
				for _, set := range vars {
					check(where, set)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if events < 10 {
		t.Fatalf("found %d events the program builds, want the emitters' (10 or more)", events)
	}
}
