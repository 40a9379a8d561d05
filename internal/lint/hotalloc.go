package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// HotAlloc reports allocating constructs inside //hawk:hotpath functions,
// plus directive-hygiene problems anywhere in the package. The checks are
// syntactic plus type information — deliberately stricter than escape
// analysis, because "provably does not allocate" is the property the
// simulator's throughput (and the AllocsPerRun pins) depend on:
//
//   - closures that capture variables (each call allocates the closure and
//     moves captured locals to the heap);
//   - map composite literals and make(map...) (maps always heap-allocate);
//   - append whose destination does not reuse the appended slice's backing
//     array — the sanctioned forms are `x = append(x, ...)` and
//     `x = append(x[:n], ...)`, the scratch-buffer discipline used by the
//     steal and probe paths;
//   - conversions or assignments that box a concrete value into an
//     interface type;
//   - any call into package fmt (formatting allocates; hot paths report
//     through pre-sized counters and slices instead).
//
// Rare cold branches inside a hot function (growth paths, panics on
// programmer error) carry //hawk:allow justifications.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //hawk:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	allows := buildAllowIndex(pass)
	checkDirectiveHygiene(pass)

	pkgHot := pkgMarked(pass, "hotpath")
	for _, f := range pass.Files {
		fileHot := pkgHot && !isTestFile(pass, f.Pos())
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fileHot || hasDirective(fn.Doc, "hotpath") {
				checkHotFunc(pass, allows, fn)
			}
		}
	}
	return nil, nil
}

func checkHotFunc(pass *analysis.Pass, allows allowIndex, fn *ast.FuncDecl) {
	appendTargets := collectAppendTargets(pass.TypesInfo, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			for _, v := range capturedVars(pass, n) {
				report(pass, allows, n.Pos(),
					"closure captures %s: allocates the closure (and heap-moves the variable) per call in hot path %s",
					v.Name(), fn.Name.Name)
			}
		case *ast.CompositeLit:
			if isMapType(pass.TypesInfo.TypeOf(n)) {
				report(pass, allows, n.Pos(),
					"map literal allocates in hot path %s (maps always live on the heap)", fn.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, allows, appendTargets, fn, n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					checkBoxing(pass, allows, lhs.Pos(), pass.TypesInfo.TypeOf(lhs), n.Rhs[i], fn)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					checkBoxing(pass, allows, name.Pos(), pass.TypesInfo.TypeOf(name), n.Values[i], fn)
				}
			}
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, allows allowIndex, appendTargets map[*ast.CallExpr]ast.Expr, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Conversion to an interface type boxes its operand.
	if len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			checkBoxing(pass, allows, call.Pos(), tv.Type, call.Args[0], fn)
			return
		}
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make":
				if len(call.Args) > 0 {
					if tv, ok := info.Types[call.Args[0]]; ok && isMapType(tv.Type) {
						report(pass, allows, call.Pos(),
							"make(map) allocates in hot path %s (reuse a scratch structure instead)", fn.Name.Name)
					}
				}
			case "append":
				checkAppend(pass, allows, appendTargets, fn, call)
			}
		}
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if pkgName, ok := info.Uses[x].(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
				report(pass, allows, call.Pos(),
					"fmt.%s allocates in hot path %s (format off the hot path, or accumulate into pre-sized state)",
					fun.Sel.Name, fn.Name.Name)
			}
		}
	}
}

// checkAppend enforces the scratch-slice discipline: an append's result
// must be assigned back over the slice it extends (`x = append(x, ...)` or
// `x = append(x[:n], ...)`), so steady-state calls reuse the destination's
// backing array and only genuine growth allocates.
func checkAppend(pass *analysis.Pass, allows allowIndex, appendTargets map[*ast.CallExpr]ast.Expr, fn *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if lhs, ok := appendTargets[call]; ok {
		if exprText(sliceBase(call.Args[0])) == exprText(lhs) {
			return
		}
		report(pass, allows, call.Pos(),
			"append result assigned to %s but extends %s: no backing-array reuse in hot path %s",
			exprText(lhs), exprText(sliceBase(call.Args[0])), fn.Name.Name)
		return
	}
	report(pass, allows, call.Pos(),
		"append outside a `x = append(x, ...)` assignment in hot path %s: the grown slice cannot be reused", fn.Name.Name)
}

// collectAppendTargets maps each append call that is the direct right-hand
// side of an assignment to its left-hand side, for the reuse check.
func collectAppendTargets(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]ast.Expr {
	targets := make(map[*ast.CallExpr]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						targets[call] = assign.Lhs[i]
					}
				}
			}
		}
		return true
	})
	return targets
}

// sliceBase strips slicing and parens: base(`x[:0]`) == base(`x[a:b]`) == x.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.SliceExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return e
		}
	}
}

func exprText(e ast.Expr) string { return types.ExprString(e) }

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkBoxing reports rhs being converted/assigned into an interface type.
func checkBoxing(pass *analysis.Pass, allows allowIndex, pos token.Pos, dst types.Type, rhs ast.Expr, fn *ast.FuncDecl) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	rt := pass.TypesInfo.TypeOf(rhs)
	if rt == nil || types.IsInterface(rt) {
		return
	}
	if b, ok := rt.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	report(pass, allows, pos,
		"boxing %s into %s allocates in hot path %s (interface conversions escape their operand)",
		rt.String(), dst.String(), fn.Name.Name)
}

// capturedVars returns the variables lit references but does not declare —
// the captures that force a heap-allocated closure. Package-level variables
// and struct fields are not captures.
func capturedVars(pass *analysis.Pass, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (param or local)
		}
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true // package-level: accessed directly, not captured
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// checkDirectiveHygiene reports //hawk: comments that would otherwise be
// silently ignored: unknown verbs, unjustified allows, and known verbs in
// positions where they have no effect. hotalloc owns this check so each
// problem is reported exactly once across the suite.
func checkDirectiveHygiene(pass *analysis.Pass) {
	for _, f := range pass.Files {
		// Comment groups where placed directives actually take effect.
		effective := map[*ast.CommentGroup]bool{f.Doc: true}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				effective[fn.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, d := range parseDirectives(cg) {
				switch {
				case !knownVerb(d.verb):
					pass.Reportf(d.pos, "unknown //hawk: directive %q (known: %s)",
						d.verb, strings.Join(knownVerbs, ", "))
				case d.verb == "allow" && d.arg == "":
					pass.Reportf(d.pos, "//hawk:allow needs a justification: say why this finding is safe to suppress")
				case d.verb != "allow" && !effective[cg]:
					pass.Reportf(d.pos, "misplaced //hawk:%s: directives take effect on package or func doc comments only", d.verb)
				}
			}
		}
	}
}
