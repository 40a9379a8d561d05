package lint

import (
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/lint/analysis/analysistest"
)

// TestDirectiveHygiene drives the fixture in which every kind of bad
// //hawk: directive must produce a finding: unknown verbs, allows without
// a justification, and directives placed where they have no effect.
func TestDirectiveHygiene(t *testing.T) {
	analysistest.Run(t, "testdata", HotAlloc, "baddirective")
}

// TestParseDirectives unit-tests the grammar corner cases directly.
func TestParseDirectives(t *testing.T) {
	src := `// Package p is a doc comment.
//
//hawk:hotpath
//hawk:deterministic trailing text is ignored
//hawk:allow because the growth path runs once
//hawk:allow // a nested comment is not a justification
//hawk:allow
//hawk:
// plain comment, not a directive
//  hawk:hotpath is not a directive either (space before hawk)
package p
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := parseDirectives(f.Doc)
	want := []struct {
		verb, arg string
	}{
		{"hotpath", ""},
		{"deterministic", ""},
		{"allow", "because the growth path runs once"},
		{"allow", ""}, // nested comment stripped: unjustified
		{"allow", ""},
		{"", ""}, // empty verb: unknown, so hygiene reports it
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d directives, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].verb != w.verb || got[i].arg != w.arg {
			t.Errorf("directive %d = {verb:%q arg:%q}, want {verb:%q arg:%q}",
				i, got[i].verb, got[i].arg, w.verb, w.arg)
		}
	}
	if knownVerb("") || knownVerb("frobnicate") {
		t.Error("empty and unknown verbs must not be known")
	}
	for _, v := range knownVerbs {
		if !knownVerb(v) {
			t.Errorf("knownVerb(%q) = false", v)
		}
	}
}
