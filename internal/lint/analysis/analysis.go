// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass, Diagnostic —
// plus the one package loader hawklint needs (Load in load.go), which both
// internal/lint's whole-tree test and analysistest's fixtures go through.
//
// The repository deliberately has no third-party dependencies, so the real
// x/tools module is not available; this package supplies the ~5% of its
// surface the hawklint analyzers need. Analyzers written against it are
// intentionally source-compatible with the x/tools shape (same field names,
// same Run signature), so they could be ported to the real framework by
// changing one import path.
//
// Differences from x/tools kept on purpose:
//
//   - no Facts, no Requires/ResultOf: the hawklint analyzers are all
//     single-package and self-contained;
//   - no SuggestedFixes and no TypesSizes: nothing reports a fix or
//     measures a layout;
//   - no standalone binary: the analyzers run inside `go test`, on packages
//     typechecked from the export data `go list -export` built.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. Run is invoked once per package
// with a fully typechecked Pass; it reports problems via pass.Report /
// pass.Reportf. The first return value is unused (kept for x/tools
// signature compatibility).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, then detail.
	Doc string

	// Run applies the analyzer to a package.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run with a single typechecked package and a
// sink for its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet // positions for Files
	Files []*ast.File    // the package's syntax trees, comments included

	Pkg       *types.Package // the typechecked package
	TypesInfo *types.Info    // type information (Types, Defs, Uses, ...)

	// Report delivers one diagnostic. Pass.Run fills it in; analyzers
	// usually call Reportf instead.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run applies a to the package p holds and returns its diagnostics. p is a
// copy, so one loaded Pass serves every analyzer.
func (p Pass) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	p.Analyzer = a
	p.Report = func(d Diagnostic) { diags = append(diags, d) }
	if _, err := a.Run(&p); err != nil {
		return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
	}
	return diags, nil
}

// A Diagnostic is one finding: a position and a message. The reporting
// analyzer's name is attached by the caller of Pass.Run, not carried here.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
