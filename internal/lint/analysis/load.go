package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listed is the part of a `go list -json` record Load reads.
type listed struct {
	ImportPath string // with a " [P.test]" suffix on a test variant
	Dir        string
	GoFiles    []string          // test variants include their _test.go files
	Export     string            // export data file the go command built
	ImportMap  map[string]string // import path in source -> ImportPath
	DepOnly    bool
	Module     *struct{ GoVersion string }
}

// Load typechecks the packages matching patterns, resolved in dir, the way
// `go vet` visits them: a package with in-package tests is checked as its
// test variant (its _test.go files included), and an external _test
// package is a package of its own. `go list -test -deps -export` builds the
// export data of every dependency, and imports resolve through it — the
// bytes the compiler consumed, so the types are exact and only the matched
// packages are parsed. Load returns one Pass per package, with Analyzer and
// Report unset; run an analyzer on it with Pass.Run.
func Load(dir string, patterns ...string) ([]*Pass, error) {
	cmd := exec.Command("go", append([]string{"list", "-test", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	var pkgs []*listed
	byPath := make(map[string]*listed)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
		byPath[p.ImportPath] = p
	}

	fset := token.NewFileSet()
	var passes []*Pass
	for _, p := range pkgs {
		// Skip dependencies, generated test mains, and a package whose test
		// variant is listed too: the variant is the package plus its tests.
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") || byPath[p.ImportPath+" ["+p.ImportPath+".test]"] != nil {
			continue
		}
		pass, err := check(fset, p, byPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		passes = append(passes, pass)
	}
	return passes, nil
}

// check parses p's files and typechecks them against the export data of
// its imports.
func check(fset *token.FileSet, p *listed, byPath map[string]*listed) (*Pass, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// One importer per package: its cache is keyed by import path, and two
	// packages may see different variants under the same path.
	compiled := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		dep := byPath[path]
		if dep == nil || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(dep.Export)
	})
	cfg := &types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		return compiled.Import(path)
	})}
	if p.Module != nil {
		cfg.GoVersion = "go" + p.Module.GoVersion
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	path, _, _ := strings.Cut(p.ImportPath, " ")
	pkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
