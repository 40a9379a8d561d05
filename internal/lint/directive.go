package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// A directive is one parsed //hawk: comment line.
type directive struct {
	pos  token.Pos // position of the comment line
	verb string    // "hotpath", "deterministic", "exporteddoc", "allow", or unknown
	arg  string    // allow: the justification
}

// knownVerbs lists every directive verb the suite understands, for the
// unknown-verb diagnostic.
var knownVerbs = []string{"allow", "deterministic", "exporteddoc", "hotpath"}

func knownVerb(v string) bool {
	for _, k := range knownVerbs {
		if v == k {
			return true
		}
	}
	return false
}

const directivePrefix = "//hawk:"

// parseDirectives extracts the //hawk: directives from one comment group.
// A nil group yields nil.
func parseDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		d := directive{pos: c.Pos()}
		var rest string
		d.verb, rest, _ = strings.Cut(text, " ")
		if d.verb == "allow" {
			// The justification is the whole remainder — unless it is just
			// another comment, which is not a justification (this also
			// keeps `// want` test expectations from counting as one).
			d.arg = strings.TrimSpace(rest)
			if strings.HasPrefix(d.arg, "//") {
				d.arg = ""
			}
		}
		out = append(out, d)
	}
	return out
}

// hasDirective reports whether cg contains //hawk:<verb>.
func hasDirective(cg *ast.CommentGroup, verb string) bool {
	for _, d := range parseDirectives(cg) {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file containing pos is a _test.go file.
// Package-level annotations (//hawk:hotpath, //hawk:deterministic) exempt
// test files: tests legitimately format, allocate, and range over maps.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// pkgMarked reports whether any non-test file's package doc comment
// carries //hawk:<verb> — the package-level annotation form.
func pkgMarked(pass *analysis.Pass, verb string) bool {
	for _, f := range pass.Files {
		if !isTestFile(pass, f.Pos()) && hasDirective(f.Doc, verb) {
			return true
		}
	}
	return false
}

// An allowIndex records which source lines carry a justified //hawk:allow.
// An allow on line L suppresses findings reported on L (trailing comment
// form) and on L+1 (standalone comment above the offending line).
type allowIndex map[lineKey]bool

type lineKey struct {
	file string
	line int
}

// buildAllowIndex scans every comment in the package for justified allow
// directives. Unjustified ones are not indexed — they suppress nothing and
// are themselves reported by hotalloc's hygiene pass.
func buildAllowIndex(pass *analysis.Pass) allowIndex {
	idx := make(allowIndex)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, d := range parseDirectives(cg) {
				if d.verb == "allow" && d.arg != "" {
					p := pass.Fset.Position(d.pos)
					idx[lineKey{p.Filename, p.Line}] = true
				}
			}
		}
	}
	return idx
}

// allowed reports whether a finding at pos is suppressed.
func (idx allowIndex) allowed(pass *analysis.Pass, pos token.Pos) bool {
	p := pass.Fset.Position(pos)
	return idx[lineKey{p.Filename, p.Line}] || idx[lineKey{p.Filename, p.Line - 1}]
}

// report emits a finding unless an //hawk:allow covers it.
func report(pass *analysis.Pass, idx allowIndex, pos token.Pos, format string, args ...any) {
	if idx.allowed(pass, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}
