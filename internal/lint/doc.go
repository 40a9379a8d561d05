// Package lint implements hawklint: four static analyzers that enforce, at
// compile time, the invariants this reproduction's performance and
// replayability results rest on. TestTreeIsLintClean runs them over every
// package `go vet ./...` visits, test files included, inside `go test
// ./...`, so the rules hold for every future call site — not just the ones
// the runtime tests happen to exercise. `go test ./internal/lint` is the
// one entry point.
//
// The analyzers:
//
//   - hotalloc: functions (or whole packages) annotated //hawk:hotpath may
//     not contain allocating constructs — variable-capturing closures, map
//     literals or make(map), append calls that do not reuse their
//     destination's backing array, boxing concrete values into interface
//     types, or fmt.* calls. It also owns directive hygiene: unknown,
//     unjustified, or misplaced //hawk: directives are reported here.
//   - determinism: packages annotated //hawk:deterministic may not call
//     time.Now/Since/Until, the global math/rand functions (seeded
//     rand.New(rand.NewSource(...)) streams are fine), or os.Getenv and
//     friends, and may not range over maps — iteration order would leak
//     into event ordering or report output. Order-insensitive map loops
//     (counting, collect-then-sort) carry a //hawk:allow justification.
//   - imports: packages containing any //hawk:hotpath annotation may not
//     import container/heap, container/list, reflect, or sort — the event
//     queue and server heap are hand-rolled precisely because those
//     packages box every element through interface{}.
//   - exporteddoc: packages annotated //hawk:exporteddoc must carry a doc
//     comment on every exported symbol — types, functions, methods on
//     exported receivers, constants, and variables (a group doc covers a
//     whole const/var block). The annotated packages are the repo's API
//     surface (repro/hawk and the engine packages it re-exports), where an
//     undocumented symbol is a hole in the rendered godoc.
//
// # Directive grammar
//
// Directives are comments of the form //hawk:verb (no space after //, per
// Go directive convention), placed where each verb expects:
//
//	//hawk:hotpath
//	    On a function or method declaration's doc comment: that body is a
//	    hot path. On the package clause's doc comment: every function in
//	    the package is (test files exempt).
//	//hawk:deterministic
//	    On the package clause's doc comment: the determinism analyzer
//	    applies to the package (test files exempt).
//	//hawk:exporteddoc
//	    On the package clause's doc comment: the exporteddoc analyzer
//	    applies to the package (test files exempt).
//	//hawk:allow <justification>
//	    Anywhere: suppresses hawklint findings on its own line and the
//	    line directly below. The justification is mandatory and must be
//	    prose, not another comment — a bare //hawk:allow is itself a
//	    finding.
//
// Text after the first token of a non-allow directive is ignored, so
// fixture files can append `// want` expectations to directive lines. A
// directive with an unknown verb, an allow without a justification, or a
// directive placed where its verb has no effect (e.g. //hawk:hotpath inside
// a function body) is reported by hotalloc rather than silently skipped.
//
// # Relationship to the runtime pins
//
// internal/sim keeps the testing.AllocsPerRun pins: the analyzers prove the
// constructs are absent, the runtime tests prove the compiler agreed
// (escape analysis can still surprise). Each runtime pin cross-references
// the analyzer guarding the same invariant so the two layers are maintained
// together. Struct layouts are runtime pins only: TestHotStructSizes
// (internal/sim) and TestCentralQueueLayout (internal/core) check the exact
// size and pointer-freeness of the four hot types. internal/liverun is
// deliberately unannotated: it is the wall-clock prototype, and time.Now is
// its job.
package lint
