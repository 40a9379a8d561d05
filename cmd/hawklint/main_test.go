package main

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolEndToEnd builds the hawklint binary and drives it through the
// real `go vet -vettool` protocol — the -flags/-V=full probes, export-data
// importing, per-package .cfg invocations — which the analysistest-based
// unit tests in internal/lint never touch. The whole tree must pass, so a
// hot-path allocation or a map range in any annotated package fails tier-1
// (`go test ./...`) and not only CI's hawklint step; the deliberately-broken
// selftest fixture must fail with at least one finding from every analyzer
// (the same negative control CI runs).
func TestVettoolEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet; skipped in -short mode (CI's hawklint step covers it)")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "hawklint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/hawklint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hawklint: %v\n%s", err, out)
	}

	run := func(pkg string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+tool, pkg)
		cmd.Dir = repoRoot
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// go test re-uses a cached pass until a file this process read changes,
	// and it is go vet, a child, that reads the tree: stat every Go file so
	// an edit anywhere in the module re-runs the test.
	err = filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// testdata/ is outside ./..., so the broken fixtures are not in this run.
	if out, err := run("./..."); err != nil {
		t.Errorf("hawklint findings in the tree: %v\n%s", err, out)
	}

	// The broken fixture must fail, with every analyzer represented.
	out, err := run("./internal/lint/testdata/src/selftest/")
	if err == nil {
		t.Fatalf("selftest fixture passed; expected findings\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go vet did not run: %v\n%s", err, out)
	}
	for _, analyzer := range []string{"hotalloc", "structsize", "determinism", "imports"} {
		if !strings.Contains(out, "["+analyzer+"]") {
			t.Errorf("no %s finding on the selftest fixture; output:\n%s", analyzer, out)
		}
	}
}
