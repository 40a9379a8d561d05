// Package analysistest runs an analysis.Analyzer over fixture packages and
// checks its diagnostics against `// want` expectations embedded in the
// fixture source — a dependency-free analogue of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<pkg>/*.go. Each expected diagnostic
// is declared on the line it should be reported on, as a comment (or a
// comment suffix — expectations inside directive comments work too):
//
//	m := map[string]int{} // want `map literal`
//	//hawk:frobnicate // want `unknown //hawk: directive`
//
// Each back- or double-quoted string after `want` is a regular expression;
// every expectation must be matched by a diagnostic on that line and every
// diagnostic must match an expectation, or the test fails.
//
// Fixtures are loaded by analysis.Load, like the tree: they must build with
// `go build`, and may import the standard library or this module.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run analyzes each fixture package under dir ("<dir>/src/<pkg>") with a
// and reports expectation mismatches through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		patterns[i] = "./" + pkg
	}
	passes, err := analysis.Load(filepath.Join(dir, "src"), patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	byName := make(map[string]*analysis.Pass)
	for _, p := range passes {
		byName[p.Pkg.Name()] = p // a fixture's package is named after its directory
	}
	for _, pkg := range pkgs {
		t.Run(a.Name+"/"+pkg, func(t *testing.T) {
			t.Helper()
			pass := byName[pkg]
			if pass == nil {
				t.Fatalf("fixture %s not loaded", pkg)
			}
			diags, err := pass.Run(a)
			if err != nil {
				t.Fatal(err)
			}
			checkExpectations(t, pass.Fset, pass.Files, diags)
		})
	}
}

// expectation is one `want` regexp and whether a diagnostic matched it.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

type lineKey struct {
	file string
	line int
}

var wantRE = regexp.MustCompile(`// want (.+)$`)
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				base := fset.Position(c.Pos())
				for i, text := range strings.Split(c.Text, "\n") {
					m := wantRE.FindStringSubmatch(strings.TrimRight(text, " \t"))
					if m == nil {
						continue
					}
					key := lineKey{base.Filename, base.Line + i}
					for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
						pat := arg[1]
						if pat == "" {
							pat = arg[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", key.file, key.line, pat, err)
						}
						wants[key] = append(wants[key], &expectation{re: re, raw: pat})
					}
				}
			}
		}
	}

	for _, d := range diags {
		posn := fset.Position(d.Pos)
		key := lineKey{posn.Filename, posn.Line}
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}

	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", fmt.Sprintf("%s:%d", k.file, k.line), w.raw)
			}
		}
	}
}
