package lint_test

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// TestTreeIsLintClean runs the hawklint suite over every package `go vet
// ./...` visits — test files and external _test packages included — so a
// hot-path allocation or a map range in any annotated package fails `go
// test ./...`. The deliberately-broken selftest fixture is linted beside it
// as the negative control: it must draw a finding from every analyzer it
// violates, or the clean result means nothing.
func TestTreeIsLintClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// go test re-uses a cached pass until a file this process opened
	// changes. Parsing opens every linted file, but it is the go list child
	// that lists the directories: read each one here, so a new file or a new
	// package re-runs the test too.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	const selftest = "repro/internal/lint/testdata/src/selftest"
	passes, err := analysis.Load(root, "./...", "./internal/lint/testdata/src/selftest")
	if err != nil {
		t.Fatal(err)
	}
	var withTests, external int
	found := make(map[string]bool)
	for _, pass := range passes {
		if strings.HasSuffix(pass.Pkg.Name(), "_test") {
			external++
		} else if strings.HasSuffix(pass.Fset.Position(pass.Files[len(pass.Files)-1].Pos()).Filename, "_test.go") {
			withTests++
		}
		for _, a := range lint.Analyzers {
			diags, err := pass.Run(a)
			if err != nil {
				t.Fatalf("%s: %v", pass.Pkg.Path(), err)
			}
			for _, d := range diags {
				if pass.Pkg.Path() == selftest {
					found[a.Name] = true
					continue
				}
				t.Errorf("%s: %s [%s]", pass.Fset.Position(d.Pos), d.Message, a.Name)
			}
		}
	}
	t.Logf("linted %d packages: %d with their test files, %d external test packages", len(passes), withTests, external)
	if withTests == 0 || external == 0 {
		t.Errorf("the tree's test files were not linted")
	}
	for _, name := range []string{"hotalloc", "determinism", "imports"} {
		if !found[name] {
			t.Errorf("no %s finding on the selftest fixture", name)
		}
	}
}
