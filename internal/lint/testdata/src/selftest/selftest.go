// Package selftest is hawklint's deliberately-broken fixture: it violates
// a rule of every analyzer it names while compiling cleanly.
// TestTreeIsLintClean lints it beside the tree and expects a hotalloc, a
// determinism and an imports finding — the negative control without which
// a clean tree would prove nothing, since a suite that has silently stopped
// finding anything passes too. (testdata/ is invisible to ./... patterns,
// so the tree's pass never sees this package.)
//
//hawk:deterministic
//hawk:hotpath
package selftest

import (
	"container/list" // imports: forbidden in a hot-path package
	"fmt"
	"sort" // imports: forbidden in a hot-path package
	"time"
)

// hot is a hot path (package-level annotation) that allocates twice and is
// nondeterministic twice over.
func hot(xs []int) string {
	seen := map[int]bool{} // hotalloc: map literal
	for k := range seen {  // determinism: map-order iteration
		xs[0] += k
	}
	_ = list.New()                    // uses the forbidden import
	sort.Ints(xs)                     // uses the other forbidden import
	return fmt.Sprint(time.Now(), xs) // hotalloc: fmt; determinism: wall clock
}
