package core

import (
	"testing"
	"testing/quick"

	"repro/internal/randdist"
)

// Figure 3's four cases, encoded directly.
func TestEligibleGroupFigure3(t *testing.T) {
	L, S := true, false
	cases := []struct {
		name          string
		executingLong bool
		queue         []bool
		wantStart     int
		wantEnd       int
		wantOK        bool
	}{
		// a1: executing short; queue S S L S S -> steal the group after
		// the first long entry.
		{"a1", false, []bool{S, S, L, S, S}, 3, 5, true},
		// a2: executing short; queue L S S L -> steal shorts after the
		// first long.
		{"a2", false, []bool{L, S, S, L}, 1, 3, true},
		// b1: executing long; queue S S L S -> steal the head shorts.
		{"b1", true, []bool{S, S, L, S}, 0, 2, true},
		// b2: executing long; queue S L L -> steal the single head short.
		{"b2", true, []bool{S, L, L}, 0, 1, true},
		// Executing long with a long at the head: nothing stealable at
		// the head.
		{"long-head", true, []bool{L, S, S}, 0, 0, false},
		// Executing short with no long in queue: nothing to steal.
		{"no-long", false, []bool{S, S, S}, 0, 0, false},
		// Executing short, long at tail with nothing after it.
		{"long-tail", false, []bool{S, S, L}, 0, 0, false},
		// Empty queue.
		{"empty-long", true, nil, 0, 0, false},
		{"empty-short", false, nil, 0, 0, false},
		// Executing long over an all-short queue: whole queue eligible.
		{"all-short", true, []bool{S, S, S}, 0, 3, true},
	}
	for _, c := range cases {
		start, end, ok := EligibleGroup(c.executingLong, c.queue)
		if ok != c.wantOK || (ok && (start != c.wantStart || end != c.wantEnd)) {
			t.Errorf("%s: EligibleGroup(%v, %v) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, c.executingLong, c.queue, start, end, ok, c.wantStart, c.wantEnd, c.wantOK)
		}
	}
}

// Property: the eligible group contains only short entries, is maximal
// (bounded by a long entry or the queue end on the right), and starts
// either at the head (victim running long) or right after the first long.
func TestEligibleGroupProperty(t *testing.T) {
	check := func(executingLong bool, queue []bool) bool {
		start, end, ok := EligibleGroup(executingLong, queue)
		if !ok {
			return start == end
		}
		if start < 0 || end > len(queue) || start >= end {
			return false
		}
		for i := start; i < end; i++ {
			if queue[i] {
				return false // stole a long entry
			}
		}
		// Maximality on the right.
		if end < len(queue) && !queue[end] {
			return false
		}
		if executingLong {
			return start == 0
		}
		// start-1 must be the first long entry.
		if start == 0 || !queue[start-1] {
			return false
		}
		for i := 0; i < start-1; i++ {
			if queue[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStealPolicyCandidates(t *testing.T) {
	p := NewPartition(100, 0.2) // general: 20..99
	pol := StealPolicy{Cap: 10, Enabled: true}
	src := randdist.New(1)
	for trial := 0; trial < 100; trial++ {
		thief := trial % 100
		cands := pol.CandidatesInto(nil, NewClusterView(p), src, thief)
		if len(cands) > 10 {
			t.Fatalf("got %d candidates, cap is 10", len(cands))
		}
		seen := map[int]bool{}
		for _, id := range cands {
			if !p.IsGeneral(id) {
				t.Fatalf("candidate %d outside the general partition", id)
			}
			if id == thief {
				t.Fatal("thief may not steal from itself")
			}
			if seen[id] {
				t.Fatalf("duplicate candidate %d", id)
			}
			seen[id] = true
		}
	}
}

func TestStealPolicyDisabled(t *testing.T) {
	p := NewPartition(100, 0.2)
	src := randdist.New(2)
	if c := (StealPolicy{Cap: 10, Enabled: false}).CandidatesInto(nil, NewClusterView(p), src, 0); c != nil {
		t.Fatalf("disabled policy returned candidates: %v", c)
	}
	if c := (StealPolicy{Cap: 0, Enabled: true}).CandidatesInto(nil, NewClusterView(p), src, 0); c != nil {
		t.Fatalf("zero cap returned candidates: %v", c)
	}
}

func TestStealPolicyCapLargerThanPartition(t *testing.T) {
	p := NewPartition(10, 0.5) // 5 general nodes
	pol := StealPolicy{Cap: 50, Enabled: true}
	src := randdist.New(3)
	cands := pol.CandidatesInto(nil, NewClusterView(p), src, 7) // thief inside general partition
	if len(cands) != 4 {
		t.Fatalf("want all 4 other general nodes, got %d (%v)", len(cands), cands)
	}
}

func TestNewStealPolicyDefaults(t *testing.T) {
	pol := NewStealPolicy()
	if pol.Cap != DefaultStealCap || !pol.Enabled {
		t.Fatalf("unexpected defaults: %+v", pol)
	}
}

func TestRandomShortIndices(t *testing.T) {
	src := randdist.New(4)
	L, S := true, false
	flags := []bool{S, L, S, S, L, S}
	for trial := 0; trial < 200; trial++ {
		idx, _ := RandomShortIndicesInto(nil, nil, flags, 3, src)
		if len(idx) != 3 {
			t.Fatalf("got %d indices, want 3", len(idx))
		}
		for i, v := range idx {
			if flags[v] {
				t.Fatalf("picked a long entry at %d", v)
			}
			if i > 0 && idx[i-1] >= v {
				t.Fatal("indices not strictly increasing")
			}
		}
	}
	// Requesting more than available clamps.
	if idx, _ := RandomShortIndicesInto(nil, nil, flags, 10, src); len(idx) != 4 {
		t.Fatalf("clamped pick = %d, want all 4 shorts", len(idx))
	}
	// No shorts: nothing to pick.
	if idx, _ := RandomShortIndicesInto(nil, nil, []bool{L, L}, 2, src); idx != nil {
		t.Fatalf("picked from all-long queue: %v", idx)
	}
	if idx, _ := RandomShortIndicesInto(nil, nil, flags, 0, src); idx != nil {
		t.Fatalf("count 0 should pick nothing: %v", idx)
	}
}

// RandomShortIndicesInto must draw identically with reused scratch buffers
// and with fresh (nil) ones — pick for pick across arbitrary flag patterns
// and counts, leaving the two sources in the same state — and must not
// allocate once its buffers have capacity. The simulator's random-position ablation threads scratch
// buffers through it, and the golden-report pin only covers one operating
// point; this covers the distribution.
func TestRandomShortIndicesIntoEquivalence(t *testing.T) {
	alloc := randdist.New(99)
	into := randdist.New(99)
	pattern := randdist.New(1234) // drives flag patterns and counts only
	var picks, shorts []int
	for trial := 0; trial < 500; trial++ {
		flags := make([]bool, 1+pattern.Intn(40))
		for i := range flags {
			flags[i] = pattern.Float64() < 0.4
		}
		count := pattern.Intn(len(flags) + 3)
		want, _ := RandomShortIndicesInto(nil, nil, flags, count, alloc)
		picks, shorts = RandomShortIndicesInto(picks[:0], shorts[:0], flags, count, into)
		if len(picks) != len(want) {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(picks), len(want))
		}
		for i := range want {
			if picks[i] != want[i] {
				t.Fatalf("trial %d: picks = %v, want %v", trial, picks, want)
			}
		}
	}
	// The streams must still agree after the whole sequence: any skipped
	// or extra draw shows up here even if the picks happened to match.
	for i := 0; i < 32; i++ {
		if a, b := alloc.Int63(), into.Int63(); a != b {
			t.Fatalf("rng streams diverged after equivalent call sequences (draw %d: %d vs %d)", i, a, b)
		}
	}
}

func TestRandomShortIndicesIntoZeroAllocs(t *testing.T) {
	src := randdist.New(7)
	flags := []bool{false, true, false, false, true, false, false}
	picks := make([]int, 0, 8)
	shorts := make([]int, 0, 8)
	// Warm the source's internal sampling scratch.
	picks, shorts = RandomShortIndicesInto(picks[:0], shorts[:0], flags, 3, src)
	allocs := testing.AllocsPerRun(500, func() {
		picks, shorts = RandomShortIndicesInto(picks[:0], shorts[:0], flags, 3, src)
	})
	if allocs != 0 {
		t.Errorf("RandomShortIndicesInto allocated %v times per call with warm buffers", allocs)
	}
	_ = picks
}
