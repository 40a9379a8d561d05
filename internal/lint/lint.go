package lint

import "repro/internal/lint/analysis"

// Analyzers is the hawklint suite in the order diagnostics should be
// easiest to read: allocation first, then determinism, then imports, then
// doc coverage. TestTreeIsLintClean runs exactly this list.
var Analyzers = []*analysis.Analyzer{
	HotAlloc,
	Determinism,
	Imports,
	ExportedDoc,
}
