package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Determinism enforces replayability in packages annotated
// //hawk:deterministic: every simulation, and every report derived from
// one, must be a pure function of (trace, config, seed) — that is what
// lets internal/experiments fan runs out in parallel with byte-identical
// results and what makes the golden-report suite meaningful at all.
// Forbidden:
//
//   - time.Now / time.Since / time.Until — wall clock (the live prototype
//     in internal/liverun is the one place wall-clock belongs, and it is
//     deliberately not annotated);
//   - the global math/rand functions — a process-wide stream that cannot
//     be seeded per run; rand.New(rand.NewSource(seed)) streams and
//     internal/randdist Sources are fine;
//   - os.Getenv / os.LookupEnv / os.Environ — environment-dependent
//     behavior changes results between hosts;
//   - ranging over a map — iteration order is randomized per run, and a
//     map-ordered loop that feeds event ordering or report output is the
//     classic source of almost-always-identical runs. Order-insensitive
//     loops (counting, collect-then-sort) carry //hawk:allow with a
//     justification saying why order cannot reach the output.
//
// Test files are exempt: goldens and assertions already pin their output.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, env, and map-order dependence in //hawk:deterministic packages",
	Run:  runDeterminism,
}

// forbiddenFuncs maps package path -> function name -> short reason.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall clock",
		"Since": "wall clock",
		"Until": "wall clock",
	},
	"os": {
		"Getenv":    "environment-dependent",
		"LookupEnv": "environment-dependent",
		"Environ":   "environment-dependent",
	},
}

// allowedRand lists the math/rand functions that construct explicit seeded
// streams rather than touching the global one.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // operates on an explicit *Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !pkgMarked(pass, "deterministic") {
		return nil, nil
	}
	allows := buildAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenRef(pass, allows, n)
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					report(pass, allows, n.Pos(),
						"range over map: iteration order is nondeterministic and must not reach event ordering or report output (sort the keys, or //hawk:allow with a justification)")
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkForbiddenRef flags any reference (call or value use) to a forbidden
// stdlib function — passing time.Now around is as nondeterministic as
// calling it.
func checkForbiddenRef(pass *analysis.Pass, allows allowIndex, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	if reason, ok := forbiddenFuncs[path][name]; ok {
		report(pass, allows, sel.Pos(),
			"%s.%s is %s: deterministic packages must derive every value from (trace, config, seed)", path, name, reason)
		return
	}
	if (path == "math/rand" || path == "math/rand/v2") && !allowedRand[name] {
		// Only package-level functions are the global stream; methods on
		// *rand.Rand have a receiver and are explicitly seeded.
		if fn.Type().(*types.Signature).Recv() == nil {
			report(pass, allows, sel.Pos(),
				"global math/rand.%s uses the process-wide stream: draw from a seeded source (randdist.Source or rand.New) instead", name)
		}
	}
}
