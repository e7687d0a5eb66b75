package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportsPlantedDeadExport runs the checker over a small module with one
// export of each kind it must tell apart, and holds it to reporting exactly
// the dead one and the stale allowlist line.
func TestReportsPlantedDeadExport(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"internal/a/a.go": `package a

type T struct{}

// OnlyTested is mentioned by its own test and by a script: dead.
func OnlyTested() {}

// FromCmd is called from cmd/: live.
func FromCmd() {}

// ViaInterface is reached only through b.Doer: live.
func (T) ViaInterface() {}

// MarshalJSON is reached by reflection: skipped.
func (T) MarshalJSON() ([]byte, error) { return nil, nil }

// Oracle is dead and allowlisted with a reason.
func Oracle() {}

func unexported() {}
`,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestOnlyTested(t *testing.T) { OnlyTested(); Oracle(); unexported() }\n",
		"internal/b/b.go":      "package b\n\ntype Doer interface{ ViaInterface() }\n\nfunc Do(d Doer) { d.ViaInterface() }\n",
		"cmd/x/main.go":        "package main\n\nimport (\n\t\"planted/internal/a\"\n\t\"planted/internal/b\"\n)\n\nfunc main() { a.FromCmd(); b.Do(a.T{}) }\n",
		"scripts/tool/main.go": "package main\n\nimport \"planted/internal/a\"\n\nfunc main() { a.OnlyTested() }\n",
		allowFile:              "# comment\na.Oracle  the oracle for something that stays\na.Gone  was deleted long ago\n",
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
	want := "a.OnlyTested internal/a/a.go:6\n" +
		"a.Gone " + allowFile + ": allowlisted, but not a dead export\n"
	if out.String() != want || n != 2 {
		t.Fatalf("run reported %d findings:\n%swant 2:\n%s", n, out.String(), want)
	}
}
