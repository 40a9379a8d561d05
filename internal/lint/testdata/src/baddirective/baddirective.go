// Package baddirective exercises the directive hygiene checks owned by the
// hotalloc analyzer: unknown verbs, unjustified allows, and directives
// placed where they have no effect must all be reported, never ignored.
package baddirective

//hawk:frobnicate // want `unknown //hawk: directive "frobnicate"`

//hawk:allow // want `//hawk:allow needs a justification`

func f() int {
	//hawk:deterministic // want `misplaced //hawk:deterministic`
	x := 0
	//hawk:hotpath // want `misplaced //hawk:hotpath`
	return x
}

// Misplaced on a non-func declaration:
//
//hawk:hotpath // want `misplaced //hawk:hotpath`
var v int

// A layout pin is a runtime test, not a directive:
//
//hawk:size=16 // want `unknown //hawk: directive "size=16"`
type pinned struct{ a, b int64 }

//hawk:hotpath
func hot() {
	m := make(map[int]int) //hawk:allow reused lookup table, justified properly
	_ = m
	_ = v
	_ = pinned{}
}
