// Command deadexports lists the exported functions and methods declared in
// non-test files under internal/ that no non-test .go file of the module
// mentions, one per line as `pkg.Type.Method file:line`, and exits non-zero
// if there are any. `make dead-exports` runs it; ROADMAP's rule is that
// nothing under internal/ is without a caller or a named reason.
//
//	go run ./scripts/deadexports [ROOT]    ROOT defaults to "."
//
// The match is name-level on purpose: a mention is the bare identifier
// anywhere outside a function's own declaration, whatever it resolves to, in
// any non-test file outside scripts/ (cmd/, benchmark/, examples/ and the
// facade all count as callers; this tool's own use of go/ast does not). So
// it can miss a dead export hidden behind a shared name — a dead T.Len
// beside a live U.Len, a constructor named like a field — and it can never
// accuse a live one. It needs no type checking and nothing outside the
// standard library. The four method names the encoding packages reach by
// reflection are skipped.
//
// ROOT/scripts/deadexports/allow.txt holds the exceptions, one per line:
// the name as printed, then the reason it stays. A line that no longer names
// a dead export is itself a failure, so the list cannot outlive its reasons.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/deadexports/allow.txt"

var byReflection = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// export is one candidate: its bare identifier, its printed name
// (pkg.Type.Method) and where it is declared.
type export struct{ ident, name, pos string }

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
	if n > 0 {
		os.Exit(1)
	}
}

// run prints the findings under root to w and returns how many there were.
func run(root string, w io.Writer) (int, error) {
	allowed, err := readAllow(filepath.Join(root, allowFile))
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	var exports []export
	mentioned := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (rel == "scripts" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		decl := map[*ast.Ident]bool{} // the names being declared are not mentions
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decl[fn.Name] = true
			if !internal || !fn.Name.IsExported() || byReflection[fn.Name.Name] {
				continue
			}
			name := f.Name.Name + "."
			if fn.Recv != nil {
				name += receiver(fn.Recv.List[0].Type) + "."
			}
			p := fset.Position(fn.Name.Pos())
			exports = append(exports, export{fn.Name.Name, name + fn.Name.Name,
				fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				mentioned[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	sort.Slice(exports, func(i, j int) bool { return exports[i].name < exports[j].name })
	bad := 0
	for _, e := range exports {
		if mentioned[e.ident] {
			continue
		}
		if _, ok := allowed[e.name]; ok {
			allowed[e.name] = true
			continue
		}
		fmt.Fprintf(w, "%s %s\n", e.name, e.pos)
		bad++
	}
	var stale []string
	for name, used := range allowed {
		if !used {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Fprintf(w, "%s %s: allowlisted, but not a dead export\n", name, allowFile)
	}
	return bad + len(stale), nil
}

// receiver is the type name of a method's receiver, without pointer or
// type parameters.
func receiver(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return receiver(t.X)
	case *ast.IndexExpr:
		return receiver(t.X)
	case *ast.IndexListExpr:
		return receiver(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// readAllow maps each allowlisted name to false (not yet matched); a
// missing file is an empty list.
func readAllow(path string) (map[string]bool, error) {
	allowed := map[string]bool{}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return allowed, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
			allowed[fields[0]] = false
		}
	}
	return allowed, sc.Err()
}
