// Command deadexports lists what the program does not reach: every func,
// method, type, const and package-level var declared in a non-test file
// under internal/, exported or not, and every func of the facade (the
// package at the module root) that no root reaches, every interface
// method under internal/ that no call goes through, and every exported
// field of a struct declared under internal/ that no live code writes. One
// finding per line, `pkg.Type.Method file:line` (`pkg.Type.Field` for a
// field); it exits non-zero if there are any. `make
// dead-exports` runs it; ROADMAP's rule is that nothing under internal/ is
// without a caller or a named reason, and that the facade keeps only what a
// program or a facade test runs.
//
//	go run ./scripts/deadexports [ROOT]    ROOT defaults to "."
//
// The module's non-test files, and the module root's external test package
// (package mzqos_test, its `_test.go` files), are type-checked with
// go/types, the standard library from its source (go/importer's "source"
// compiler), so the tool needs nothing outside the standard library and no
// network. scripts/, testdata and hidden directories are not part of the
// program. Reachability follows objects (types.Info.Uses), never names:
//
//   - the roots are the main function of every main package (cmd/,
//     examples/, benchmark/), every top-level func of the module root's
//     external test package (its Examples, Tests and Benchmarks), the
//     facade's exported types, consts and vars and the exported methods
//     declared in it, every init function, whatever a package-level var's
//     initialiser uses, and every allowlisted name. A facade func is not a
//     root: a program or a facade test has to call it;
//   - a declaration is live if a live declaration uses it;
//   - a method is also live if its receiver type is live and it implements
//     the method of an interface that live code calls through. Every
//     interface the standard library declares counts as called through (fmt
//     calls String, sort calls Len, net/http calls ServeHTTP), so a live
//     type's Error, MarshalJSON or Write is live;
//   - a struct field is live only if a live declaration writes it: as a
//     composite-literal key or position, as a selector anywhere in an
//     assignment's or an increment's left-hand chain (x.F = , x.F.G = ,
//     x.F[i] = , x.F++), or by taking its address (&x.F). Reading a field
//     never makes it live, so a Config field only tests set is reported.
//     Nor does a method's plain assignment of constants only into fields
//     of its own receiver (withDefaults' c.N = DefaultN): a default is the
//     package's value, not a caller's setting. An increment, a compound
//     assignment or a non-constant store there still writes. Embedded
//     fields are not reported.
//
// A type the facade re-exports by alias is reached, but its methods are held
// to the same rules as any other type's.
//
// ROOT/scripts/deadexports/allow.txt holds the exceptions, one per line: the
// name as printed, then the reason it stays. A line that names nothing dead
// is itself a failure, so the list cannot outlive its reasons.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/deadexports/allow.txt"

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	n, err := run(root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	os.Exit(min(n, 1))
}

// run prints the findings under root to w and returns how many there were.
func run(root string, w io.Writer) (int, error) {
	allow, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	p, err := load(root)
	if err != nil {
		return 0, err
	}
	// An allowlisted name must be dead without the list; then it is a root.
	p.reach()
	var found, stale []string
	for _, line := range strings.Split(string(allow), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		n := len(p.queue)
		for _, o := range p.decls {
			if !p.live[o] && p.name(o) == f[0] {
				p.mark(o)
			}
		}
		if len(p.queue) == n {
			stale = append(stale, fmt.Sprintf("%s %s: allowlisted, but not dead", f[0], allowFile))
		}
	}
	p.reach()
	for _, o := range p.decls {
		if !p.live[o] {
			pos := p.fset.Position(o.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			found = append(found, fmt.Sprintf("%s %s:%d", p.name(o), filepath.ToSlash(rel), pos.Line))
		}
	}
	sort.Strings(found)
	for _, line := range append(found, stale...) {
		fmt.Fprintln(w, line)
	}
	return len(found) + len(stale), nil
}

// program is the module's non-test code, type-checked, with what each
// declaration uses and what is live so far.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	mod   string
	pkgs  map[string]*pkg // by import path
	decls []types.Object  // what can be reported: internal/'s declarations
	uses  map[types.Object][]types.Object
	live  map[types.Object]bool
	queue []types.Object
	// ifaces maps each interface called through to the methods called: for
	// the standard library's, all of them.
	ifaces map[*types.Interface][]*types.Func
	// owner maps each reportable struct field to its struct type's name.
	owner map[types.Object]types.Object
}

type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// load parses and type-checks every package under root and records what
// each of its declarations uses.
func load(root string) (*program, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	p := &program{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{},
		uses: map[types.Object][]types.Object{}, live: map[types.Object]bool{}, ifaces: map[*types.Interface][]*types.Func{},
		owner: map[types.Object]types.Object{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			p.mod = f[1]
		}
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		if rel != "." && (rel == "scripts" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		path := strings.TrimSuffix(p.mod+"/"+filepath.ToSlash(rel), "/.")
		if p.pkgs[path], err = parse(fset, dir, bp.GoFiles); err != nil {
			return err
		}
		if rel == "." && len(bp.XTestGoFiles) > 0 {
			p.pkgs[p.mod+"_test"], err = parse(fset, dir, bp.XTestGoFiles)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for path := range p.pkgs {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	// The standard library is not analysed: every interface it declares is
	// called through, all its methods.
	callAll := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && p.ifaces[it] == nil {
			for i := 0; i < it.NumMethods(); i++ {
				p.ifaces[it] = append(p.ifaces[it], it.Method(i))
			}
		}
	}
	callAll(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var std func(*types.Package)
	std = func(t *types.Package) {
		for _, i := range t.Imports() {
			if !seen[i] && p.pkgs[i.Path()] == nil {
				seen[i] = true
				std(i)
				for _, name := range i.Scope().Names() {
					callAll(i.Scope().Lookup(name).Type())
				}
			}
		}
	}
	for path, q := range p.pkgs {
		std(q.types)
		p.graph(path, q)
	}
	p.mark(nil)
	return p, nil
}

// parse parses the named files of dir into one package.
func parse(fset *token.FileSet, dir string, names []string) (*pkg, error) {
	q := &pkg{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		q.files = append(q.files, f)
	}
	return q, nil
}

// Import type-checks the module's packages itself, once each, so that a use
// in one package is the object another declares; the rest comes from the
// source importer.
func (p *program) Import(path string) (*types.Package, error) {
	q := p.pkgs[path]
	if q == nil {
		return p.std.Import(path)
	}
	var err error
	if q.info == nil {
		q.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		q.types, err = (&types.Config{Importer: p}).Check(path, p.fset, q.files, q.info)
	}
	return q.types, err
}

// graph records what each top-level declaration of q uses, marks the roots
// among them, and lists internal/'s declarations and the facade's funcs as
// what can be reported. fn says the declaration is a func, not a method.
func (p *program) graph(path string, q *pkg) {
	main := q.types.Name() == "main"
	facade := path == p.mod && !main
	tests := path == p.mod+"_test"
	internal := strings.HasPrefix(path, p.mod+"/internal/")
	declare := func(id *ast.Ident, n ast.Node, fn bool) types.Object {
		o := q.info.Defs[id]
		p.edges(q, n, o)
		switch {
		case id.Name == "_":
		case internal || facade && fn:
			p.decls = append(p.decls, o)
		case facade && id.IsExported() || main && id.Name == "main" || tests && fn:
			p.mark(o)
		}
		return o
	}
	for _, f := range q.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					p.edges(q, d, nil)
				} else {
					declare(d.Name, d, d.Recv == nil)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						o := declare(s.Name, s, false)
						if !internal {
							continue
						}
						switch t := o.Type().Underlying().(type) {
						case *types.Interface:
							for i := 0; i < t.NumExplicitMethods(); i++ {
								p.decls = append(p.decls, t.ExplicitMethod(i))
							}
						case *types.Struct:
							for i := 0; i < t.NumFields(); i++ {
								if f := t.Field(i); f.Exported() && !f.Embedded() {
									p.decls = append(p.decls, f)
									p.owner[f] = o
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							o := declare(id, s, false)
							// An implicitly repeated const names its type nowhere.
							if t, ok := o.Type().(*types.Named); ok {
								p.uses[o] = append(p.uses[o], t.Obj())
							}
						}
						if d.Tok == token.VAR && len(s.Values) > 0 {
							p.edges(q, s, nil) // an initialiser runs whether or not its var is used
						}
					}
				}
			}
		}
	}
}

// edges adds what n uses to the uses of from; the uses of nil are the
// roots'. A method of a generic type is used as its origin. A struct field
// is used only where n writes it: a composite-literal key or position, a
// selector in an assignment's or an increment's left-hand chain, or an
// address taken; reading a field does not use it, and neither does a
// method storing constants into its own receiver (see defaulting).
func (p *program) edges(q *pkg, n ast.Node, from types.Object) {
	use := func(o types.Object) {
		switch o := o.(type) {
		case *types.Func:
			p.uses[from] = append(p.uses[from], o.Origin())
		case *types.Var:
			p.uses[from] = append(p.uses[from], o.Origin())
		case nil:
		default:
			p.uses[from] = append(p.uses[from], o)
		}
	}
	// write uses the fields of the chain x.F.G[i] that a store to it writes.
	write := func(x ast.Expr) {
		for {
			switch e := x.(type) {
			case *ast.SelectorExpr:
				use(q.info.Uses[e.Sel])
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.StarExpr:
				x = e.X
			case *ast.ParenExpr:
				x = e.X
			default:
				return
			}
		}
	}
	var self types.Object // a method's receiver
	if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
		self = q.info.Defs[fd.Recv.List[0].Names[0]]
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := q.info.Uses[n].(*types.Var); !ok || !v.IsField() {
				use(q.info.Uses[n])
			}
		case *ast.AssignStmt:
			if defaulting(q, n, self) {
				break
			}
			for _, x := range n.Lhs {
				write(x)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CompositeLit:
			if st, ok := q.info.Types[n].Type.Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						use(q.info.Uses[kv.Key.(*ast.Ident)])
					} else {
						use(st.Field(i))
					}
				}
			}
		}
		return true
	})
}

// defaulting says a is a plain assignment of constants only into fields
// of self, the enclosing method's receiver (withDefaults' c.N = DefaultN):
// the value stored is the package's, not a caller's, so it does not make
// a knob live. An increment, a compound assignment and a non-constant
// store still write.
func defaulting(q *pkg, a *ast.AssignStmt, self types.Object) bool {
	if self == nil || a.Tok != token.ASSIGN {
		return false
	}
	for _, r := range a.Rhs {
		if q.info.Types[r].Value == nil {
			return false
		}
	}
	for _, x := range a.Lhs {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		for inner, ok := sel.X.(*ast.SelectorExpr); ok; inner, ok = sel.X.(*ast.SelectorExpr) {
			sel = inner
		}
		if id, ok := sel.X.(*ast.Ident); !ok || q.info.Uses[id] != self {
			return false
		}
	}
	return true
}

func (p *program) mark(o types.Object) {
	if !p.live[o] {
		p.live[o] = true
		p.queue = append(p.queue, o)
	}
}

// reach marks everything the live set reaches, through uses and through the
// interfaces live code calls, until neither adds anything.
func (p *program) reach() {
	for len(p.queue) > 0 {
		for len(p.queue) > 0 {
			o := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			for _, u := range p.uses[o] {
				p.mark(u)
			}
			if r := recv(o); r != nil && types.IsInterface(r) {
				it := r.Underlying().(*types.Interface)
				p.ifaces[it] = append(p.ifaces[it], o.(*types.Func))
			}
		}
		for o := range p.live {
			// The module's concrete types; a generic one has no method set
			// until instantiated.
			tn, _ := o.(*types.TypeName)
			if tn == nil || tn.IsAlias() || tn.Pkg() == nil || p.pkgs[tn.Pkg().Path()] == nil ||
				types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for it, ms := range p.ifaces {
				if types.Implements(ptr, it) {
					for _, m := range ms {
						o, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
						p.mark(o.(*types.Func).Origin())
					}
				}
			}
		}
	}
}

// recv is a method's receiver type, nil for anything else.
func recv(o types.Object) types.Type {
	if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return f.Type().(*types.Signature).Recv().Type()
	}
	return nil
}

// name prints an object as pkg.Name, or pkg.Type.Method for a method and
// pkg.Type.Field for a field.
func (p *program) name(o types.Object) string {
	if t := p.owner[o]; t != nil {
		return o.Pkg().Name() + "." + t.Name() + "." + o.Name()
	}
	t := recv(o)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return o.Pkg().Name() + "." + n.Obj().Name() + "." + o.Name()
	}
	return o.Pkg().Name() + "." + o.Name()
}
