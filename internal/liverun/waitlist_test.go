package liverun

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"

	"repro/internal/policy"
)

// waitKindNames names every policy.WaitKind, so the source checks below can
// match the kinds the package spells out. A kind added to policy without a
// name here fails TestWaitKindsParkAndResume.
var waitKindNames = map[string]policy.WaitKind{
	"WaitCentral":    policy.WaitCentral,
	"WaitSchedJob":   policy.WaitSchedJob,
	"WaitSchedTask":  policy.WaitSchedTask,
	"WaitSchedProbe": policy.WaitSchedProbe,
	"WaitSchedReply": policy.WaitSchedReply,
}

// parsePackage parses the package's non-test files.
func parsePackage(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	dir, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range dir {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// isPolicySel reports whether e is policy.<name>, returning the name.
func isPolicySel(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return sel.Sel.Name, ok && pkg.Name == "policy"
}

// One rule set, two engines: every wait kind has a live park point (a
// parkLocked call naming it) and a live resume (a row of resumes).
func TestWaitKindsParkAndResume(t *testing.T) {
	named := map[policy.WaitKind]bool{}
	for _, k := range waitKindNames {
		named[k] = true
	}
	parked := map[policy.WaitKind]bool{}
	fset, files := parsePackage(t)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "parkLocked" || len(call.Args) == 0 {
				return true
			}
			name, ok := isPolicySel(call.Args[0])
			k, known := waitKindNames[name]
			if !ok || !known {
				t.Errorf("%s: parkLocked on %s, not a policy.WaitKind", fset.Position(call.Pos()), types.ExprString(call.Args[0]))
				return true
			}
			parked[k] = true
			return true
		})
	}
	for k := policy.WaitKind(0); k < policy.NumWaitKinds; k++ {
		if !named[k] {
			t.Errorf("wait kind %d has no name in waitKindNames", k)
			continue
		}
		if !parked[k] {
			t.Errorf("wait kind %d: never parked by the live engine", k)
		}
		if resumes[k] == nil {
			t.Errorf("wait kind %d: no live resume bound", k)
		}
	}
}

// The live engine has no wait kind of its own: it declares no type, const or
// var of type policy.WaitKind (or over it), so every kind it parks under is
// one of policy's.
func TestNoWaitKindOfItsOwn(t *testing.T) {
	isWaitKind := func(e ast.Expr) bool {
		name, ok := isPolicySel(e)
		return ok && name == "WaitKind"
	}
	fset, files := parsePackage(t)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if isWaitKind(n.Type) {
					t.Errorf("%s: type %s declared over policy.WaitKind", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.ValueSpec:
				if n.Type != nil && isWaitKind(n.Type) {
					t.Errorf("%s: %s declared as a policy.WaitKind", fset.Position(n.Pos()), n.Names[0].Name)
				}
				for _, v := range n.Values {
					if call, ok := v.(*ast.CallExpr); ok && isWaitKind(call.Fun) {
						t.Errorf("%s: %s declared as a policy.WaitKind", fset.Position(n.Pos()), n.Names[0].Name)
					}
				}
			}
			return true
		})
	}
}
