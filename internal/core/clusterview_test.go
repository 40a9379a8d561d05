package core

import (
	"testing"

	"repro/internal/randdist"
)

// A static view must draw bit-for-bit identically to sampling the
// Partition directly — that equivalence is what keeps every churn-free
// golden report byte-identical through the cluster-model refactor.
func TestStaticViewSamplesLikePartition(t *testing.T) {
	p := NewPartition(500, 0.1)
	v := NewClusterView(p)
	srcA := randdist.New(42)
	srcB := randdist.New(42)
	for trial := 0; trial < 200; trial++ {
		k := 1 + trial%17
		var a, b []int
		switch trial % 3 {
		case 0:
			a = p.SampleAllInto(nil, srcA, k)
			b = v.SampleAllInto(nil, srcB, k)
		case 1:
			a = p.SampleGeneralInto(nil, srcA, k)
			b = v.SampleGeneralInto(nil, srcB, k)
		case 2:
			a = p.SampleShortInto(nil, srcA, k)
			b = v.SampleShortInto(nil, srcB, k)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: draw %d differs: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
	// The two sources must also end in the same state.
	if srcA.Int63() != srcB.Int63() {
		t.Fatal("static view consumed different random draws than the partition")
	}
}

// Enabling membership changes no draw by itself: the alive lists start in id
// order, so a dynamic view with every node up samples exactly like a static
// one. The first Fail/Recover reorders a list, and from then on they part.
func TestDynamicViewSamplesLikeStaticUntilChurn(t *testing.T) {
	sample := func(v *ClusterView, src *randdist.Source, pool, k int) []int {
		switch pool {
		case 0:
			return v.SampleAllInto(nil, src, k)
		case 1:
			return v.SampleGeneralInto(nil, src, k)
		}
		return v.SampleShortInto(nil, src, k)
	}
	// diverged draws the same 3×39 samples from both views and reports
	// whether any differs.
	diverged := func(static, dynamic *ClusterView) bool {
		srcS, srcD := randdist.New(5), randdist.New(5)
		for pool := 0; pool < 3; pool++ {
			for k := 1; k < 40; k++ {
				a, b := sample(static, srcS, pool, k), sample(dynamic, srcD, pool, k)
				if len(a) != len(b) {
					return true
				}
				for i := range a {
					if a[i] != b[i] {
						return true
					}
				}
			}
		}
		return false
	}
	for _, n := range []int{10, 1000, 15000} {
		p := NewPartition(n, 0.2)
		static, dynamic := NewClusterView(p), NewClusterView(p)
		dynamic.EnableMembership()
		if diverged(static, dynamic) {
			t.Errorf("n=%d: a dynamic view with every node up drew differently from a static one", n)
		}
		// Everyone up again, but the lists reordered by the swaps.
		for id := 0; id < n/2; id++ {
			dynamic.Fail(id)
		}
		for id := 0; id < n/2; id++ {
			dynamic.Recover(id)
		}
		if !diverged(static, dynamic) {
			t.Errorf("n=%d: failing and recovering half the nodes left the draws unchanged", n)
		}
	}
}

func TestStaticViewCountsAndSpeeds(t *testing.T) {
	p := NewPartition(100, 0.2)
	v := NewClusterView(p)
	if v.Dynamic() {
		t.Fatal("fresh view must be static")
	}
	if v.AliveAll() != 100 || v.AliveShort() != 20 || v.AliveGeneral() != 80 {
		t.Fatalf("static alive counts %d/%d/%d", v.AliveAll(), v.AliveShort(), v.AliveGeneral())
	}
	if !v.Alive(0) || !v.Alive(99) {
		t.Fatal("all nodes alive on a static view")
	}
	if v.Speed(17) != 1 {
		t.Fatal("homogeneous view must report speed 1")
	}
	speeds := make([]float64, 100)
	for i := range speeds {
		speeds[i] = 0.5
	}
	v.SetSpeeds(speeds)
	if v.Speed(17) != 0.5 {
		t.Fatal("SetSpeeds not observed")
	}
}

func TestDynamicMembership(t *testing.T) {
	p := NewPartition(50, 0.2) // short: 0..9, general: 10..49
	v := NewClusterView(p)
	v.EnableMembership()
	if !v.Dynamic() {
		t.Fatal("EnableMembership did not switch the view")
	}
	if !v.Fail(3) || !v.Fail(12) || !v.Fail(49) {
		t.Fatal("failing live nodes must report true")
	}
	if v.Fail(3) {
		t.Fatal("failing a dead node must report false")
	}
	if v.Alive(3) || v.Alive(12) || v.Alive(49) {
		t.Fatal("failed nodes still alive")
	}
	if v.AliveAll() != 47 || v.AliveShort() != 9 || v.AliveGeneral() != 38 {
		t.Fatalf("alive counts %d/%d/%d after 3 failures", v.AliveAll(), v.AliveShort(), v.AliveGeneral())
	}
	dead := v.AppendDead(nil)
	if len(dead) != 3 || dead[0] != 3 || dead[1] != 12 || dead[2] != 49 {
		t.Fatalf("AppendDead = %v", dead)
	}

	// No sample may ever return a dead node, each draw set is distinct,
	// and every pool draw respects the partition side.
	src := randdist.New(7)
	for trial := 0; trial < 500; trial++ {
		ids := v.SampleAllInto(nil, src, 10)
		seen := map[int]bool{}
		for _, id := range ids {
			if !v.Alive(id) {
				t.Fatalf("sampled dead node %d", id)
			}
			if seen[id] {
				t.Fatalf("duplicate sample %d", id)
			}
			seen[id] = true
		}
		for _, id := range v.SampleGeneralInto(nil, src, 8) {
			if !p.IsGeneral(id) || !v.Alive(id) {
				t.Fatalf("bad general sample %d", id)
			}
		}
		for _, id := range v.SampleShortInto(nil, src, 4) {
			if p.IsGeneral(id) || !v.Alive(id) {
				t.Fatalf("bad short sample %d", id)
			}
		}
	}

	if !v.Recover(12) {
		t.Fatal("recovering a dead node must report true")
	}
	if v.Recover(12) {
		t.Fatal("recovering a live node must report false")
	}
	if v.AliveGeneral() != 39 || !v.Alive(12) {
		t.Fatal("recovery did not restore membership")
	}
	// Recovered nodes are sampled again.
	found := false
	for trial := 0; trial < 200 && !found; trial++ {
		for _, id := range v.SampleGeneralInto(nil, src, 5) {
			if id == 12 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("recovered node 12 never sampled")
	}
}

// Failing every node of a pool leaves its samples empty instead of
// looping, and the whole-cluster pool still serves the other side.
func TestDynamicMembershipExhaustion(t *testing.T) {
	p := NewPartition(10, 0.3) // short 0..2
	v := NewClusterView(p)
	v.EnableMembership()
	for id := 0; id < 3; id++ {
		v.Fail(id)
	}
	src := randdist.New(1)
	if got := v.SampleShortInto(nil, src, 2); len(got) != 0 {
		t.Fatalf("sampling an empty short pool returned %v", got)
	}
	if got := v.SampleAllInto(nil, src, 10); len(got) != 7 {
		t.Fatalf("whole-cluster sample returned %d ids, want the 7 live", len(got))
	}
}

func TestDynamicSamplingZeroAlloc(t *testing.T) {
	p := NewPartition(1000, 0.1)
	v := NewClusterView(p)
	v.EnableMembership()
	for id := 0; id < 50; id++ {
		v.Fail(id * 7)
	}
	src := randdist.New(3)
	dst := make([]int, 0, 32)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = v.SampleAllInto(dst[:0], src, 10)
		dst = v.SampleGeneralInto(dst[:0], src, 10)
	})
	if allocs != 0 {
		t.Errorf("dynamic sampling allocated %v times per round, want 0", allocs)
	}
}

func TestCentralQueueRemoveAdd(t *testing.T) {
	q := NewCentralQueue([]int{0, 1, 2, 3})
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Load server 0 so it is the busiest, then remove it.
	for i := 0; i < 4; i++ {
		q.Assign(0, 10) // spreads one task per idle server
	}
	q.TaskStarted(0, 0, 10, 10)
	if !q.Remove(0) {
		t.Fatal("Remove(0) on a tracked server must report true")
	}
	if q.Remove(0) {
		t.Fatal("Remove(0) twice must report false")
	}
	if q.Len() != 3 {
		t.Fatalf("Len after remove = %d", q.Len())
	}
	if q.Waiting(0, 1) != -1 {
		t.Fatal("removed server still tracked")
	}
	// Assignments go to the remaining servers only.
	for i := 0; i < 12; i++ {
		id, _ := q.Assign(1, 5)
		if id == 0 {
			t.Fatal("assigned to a removed server")
		}
	}
	// Re-adding restores an idle server with zero waiting, which must win
	// the next assignment over the loaded survivors.
	if !q.Add(0, 2) {
		t.Fatal("Add(0) after removal must report true")
	}
	if q.Add(0, 2) {
		t.Fatal("Add(0) while tracked must report false")
	}
	if q.Len() != 4 {
		t.Fatalf("Len after add = %d", q.Len())
	}
	if w := q.Waiting(0, 2); w != 0 {
		t.Fatalf("re-added server waiting = %g, want 0", w)
	}
	if id, _ := q.Assign(2, 5); id != 0 {
		t.Fatalf("next assignment went to %d, want the idle re-added 0", id)
	}
	// Growing the id space via Add works too.
	if !q.Add(9, 3) {
		t.Fatal("Add(9) beyond the original id range must work")
	}
	if q.Waiting(9, 3) != 0 {
		t.Fatal("grown server not tracked")
	}
}
