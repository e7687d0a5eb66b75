package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"mzqos/internal/server"
	"mzqos/internal/telemetry"
)

// docName matches a series name as README.md and DESIGN.md write it: a
// `_{a,b}` group is an alternation, `*` a wildcard and a trailing `_` a
// prefix (`grep ^mzqos_slo_`); a brace right after a name character is a
// label set and ends the name.
var docName = regexp.MustCompile(`mzqos_(?:_\{[a-z0-9,]+\}|[a-z0-9_*])*`)

// docPattern turns a documented name into an anchored regexp over
// registered names.
func docPattern(name string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for i := 0; i < len(name); i++ {
		switch c := name[i]; c {
		case '*':
			b.WriteString(".*")
		case '{':
			end := strings.IndexByte(name[i:], '}')
			b.WriteString("(" + strings.ReplaceAll(name[i+1:i+end], ",", "|") + ")")
			i += end
		default:
			b.WriteByte(c)
		}
	}
	if strings.HasSuffix(name, "_") {
		b.WriteString(".*")
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

// TestDocumentedMetricsRegistered: every mzqos_* series README.md and
// DESIGN.md name is registered by mzserver's stack — a one-shard faulted
// run (goldenServer's) or a two-shard cluster (testCluster's), each with
// its mux built — so a metric renamed in code and not in the docs fails
// here.
func TestDocumentedMetricsRegistered(t *testing.T) {
	var registered []string
	collect := func(reg *telemetry.Registry) {
		for _, s := range reg.Series() {
			registered = append(registered, s.Name)
		}
	}
	reg := telemetry.NewRegistry()
	coord, srv, _, _ := goldenServer(t, reg, nil, nil)
	buildMux(coord, []*server.Server{srv}, nil, false)
	collect(reg)
	coord, srvs := testCluster(t)
	buildMux(coord, srvs, nil, false)
	collect(srvs[0].Telemetry().Registry())

	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range docName.FindAllString(string(text), -1) {
			// mzqos_test is the facade's external test package, not a series.
			if seen[name] || name == "mzqos_test" {
				continue
			}
			seen[name] = true
			pat := docPattern(name)
			found := false
			for _, r := range registered {
				if pat.MatchString(r) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s names %s, which neither stack registers", doc, name)
			}
		}
		if len(seen) == 0 {
			t.Errorf("%s names no mzqos_* series", doc)
		}
	}
}
