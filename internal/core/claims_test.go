package core

import (
	"testing"

	"repro/internal/randdist"
)

func TestClaimSemantics(t *testing.T) {
	v := NewClusterView(NewPartition(10, 0.2))
	v.EnableClaims()

	if v.ClaimVersion() != 0 {
		t.Fatalf("fresh view has claim version %d, want 0", v.ClaimVersion())
	}
	// First claim on a fresh view always succeeds and advances the version.
	if !v.Claim(3, 0, 0) {
		t.Fatal("claim on an unclaimed node failed")
	}
	if v.ClaimVersion() != 1 {
		t.Fatalf("claim version = %d after one claim, want 1", v.ClaimVersion())
	}

	// A different scheduler whose snapshot predates that claim conflicts.
	if v.Claim(3, 1, 0) {
		t.Fatal("stale claim by another scheduler succeeded, want conflict")
	}
	// The failed claim must not advance the version or steal the record.
	if v.ClaimVersion() != 1 {
		t.Fatalf("failed claim moved the version to %d", v.ClaimVersion())
	}

	// The same scheduler never conflicts with its own claims, however stale
	// its snapshot: it knows its own placements.
	if !v.Claim(3, 0, 0) {
		t.Fatal("self-claim conflicted")
	}

	// A snapshot taken at the current version sees every claim: no conflict.
	since := v.ClaimVersion()
	if !v.Claim(3, 1, since) {
		t.Fatal("fresh-snapshot claim conflicted")
	}

	// Unrelated nodes never conflict.
	if !v.Claim(7, 2, 0) {
		t.Fatal("claim on an untouched node conflicted")
	}
}

func TestClaimDeadNode(t *testing.T) {
	v := NewClusterView(NewPartition(10, 0.2))
	v.EnableMembership()
	v.EnableClaims()
	v.Fail(4)
	if v.Claim(4, 0, v.ClaimVersion()) {
		t.Fatal("claim on a dead node succeeded")
	}
	v.Recover(4)
	if !v.Claim(4, 0, v.ClaimVersion()) {
		t.Fatal("claim on a recovered node failed")
	}
}

func TestCentralQueueAddLoad(t *testing.T) {
	q := NewCentralQueue([]int{0, 1, 2})
	q.AddLoad(1, 0, 5)
	if w := q.Waiting(1, 0); w != 5 {
		t.Fatalf("Waiting(1) = %g after AddLoad(5), want 5", w)
	}
	// Assign must now prefer the unloaded servers.
	for i := 0; i < 2; i++ {
		id, _ := q.Assign(0, 1)
		if id == 1 {
			t.Fatal("Assign picked the loaded server over idle ones")
		}
	}
	// Untracked nodes are ignored, not a panic.
	q.AddLoad(99, 0, 5)
	q.AddLoad(-1, 0, 5)
}

func TestCentralQueueSyncFrom(t *testing.T) {
	truth := NewCentralQueue([]int{0, 1, 2, 3})
	local := NewCentralQueue([]int{0, 1, 2, 3})

	// Diverge the two: load the truth, start a task, drop a server.
	truth.AddLoad(2, 0, 10)
	truth.AddLoad(3, 0, 4)
	truth.TaskStarted(3, 1, 4, 6) // running until t=7
	truth.Remove(0)
	// The local queue drifted its own way in the meantime.
	local.AddLoad(1, 0, 99)

	local.SyncFrom(truth)
	if local.Len() != truth.Len() {
		t.Fatalf("Len = %d after sync, want %d", local.Len(), truth.Len())
	}
	for _, id := range []int{0, 1, 2, 3} {
		if got, want := local.Waiting(id, 2), truth.Waiting(id, 2); got != want {
			t.Fatalf("Waiting(%d) = %g after sync, want %g", id, got, want)
		}
	}
	// Min-waiting order must match exactly: drain assignments side by side.
	for i := 0; i < 6; i++ {
		li, lw := local.Assign(2, 1)
		ti, tw := truth.Assign(2, 1)
		if li != ti || lw != tw {
			t.Fatalf("assign %d diverged after sync: local (%d, %g), truth (%d, %g)", i, li, lw, ti, tw)
		}
	}
	// The copies are independent: loading one leaves the other alone.
	local.AddLoad(2, 2, 50)
	if lw, tw := local.Waiting(2, 2), truth.Waiting(2, 2); lw == tw {
		t.Fatal("local load leaked into the truth queue")
	}

	// Re-sync after the divergence converges again and reuses the arenas.
	local.SyncFrom(truth)
	if got, want := local.Waiting(2, 2), truth.Waiting(2, 2); got != want {
		t.Fatalf("re-sync: Waiting(2) = %g, want %g", got, want)
	}
}

// refClaims is the claim rule as ClusterView.Claim carried it before the
// ClaimTable kernel existed, kept as the differential oracle.
type refClaims struct {
	ver map[int]uint64
	by  map[int]int32
	cur uint64
}

func (r *refClaims) claim(id int, by int32, sinceVer uint64) bool {
	if r.ver[id] > sinceVer && r.by[id] != by {
		return false
	}
	r.cur++
	r.ver[id], r.by[id] = r.cur, by
	return true
}

// applyClaimOps replays a byte string as claims by four schedulers over
// eight nodes against the kernel (directly, and through a view) and the
// oracle. Each scheduler's snapshot version advances only when the op says
// "refresh", so stale and fresh claims both occur.
func applyClaimOps(t *testing.T, ops []byte) {
	const nodes, scheds = 8, 4
	table := NewClaimTable(nodes)
	view := NewClusterView(NewPartition(nodes, 0.25))
	view.EnableClaims()
	ref := &refClaims{ver: map[int]uint64{}, by: map[int]int32{}}
	var snap [scheds]uint64
	for i, op := range ops {
		id, by := int(op&7), int32(op>>3&3)
		if op&0x20 != 0 {
			snap[by] = table.Version()
		}
		before := table.Version()
		want := ref.claim(id, by, snap[by])
		if got := table.Claim(id, by, snap[by]); got != want {
			t.Fatalf("op %d: ClaimTable.Claim(%d, %d, %d) = %v, oracle says %v", i, id, by, snap[by], got, want)
		}
		if got := view.Claim(id, by, snap[by]); got != want {
			t.Fatalf("op %d: ClusterView.Claim(%d, %d, %d) = %v, oracle says %v", i, id, by, snap[by], got, want)
		}
		after := table.Version()
		if want && after != before+1 || !want && after != before {
			t.Fatalf("op %d: version %d -> %d on a claim that returned %v", i, before, after, want)
		}
		if after != ref.cur || view.ClaimVersion() != ref.cur {
			t.Fatalf("op %d: versions diverged: table %d, view %d, oracle %d", i, after, view.ClaimVersion(), ref.cur)
		}
		// A scheduler never conflicts with itself, however stale it is.
		if !want && ref.by[id] == by {
			t.Fatalf("op %d: scheduler %d conflicted with its own claim on node %d", i, by, id)
		}
	}
}

func TestClaimTableDifferential(t *testing.T) {
	src := randdist.New(5)
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, src.Intn(80))
		for i := range ops {
			ops[i] = byte(src.Intn(256))
		}
		applyClaimOps(t, ops)
	}
}

func FuzzClaimTable(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x28, 0x08, 0x10})
	f.Add([]byte{0x07, 0x0f, 0x17, 0x3f, 0x07})
	f.Fuzz(applyClaimOps)
}

func TestClaimZeroAllocs(t *testing.T) {
	v := NewClusterView(NewPartition(16, 0.25))
	v.EnableClaims()
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		v.Claim(i%16, int32(i%3), v.ClaimVersion())
		i++
	}); allocs != 0 {
		t.Errorf("Claim allocated %v times per call", allocs)
	}
}
