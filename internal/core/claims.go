package core

// Optimistic concurrency for distributed schedulers, in the shared-state
// (Omega) style: the authoritative cluster state carries a per-node claim
// record and a global claim version (ClaimTable). Each scheduler works
// against a stale snapshot taken at some version; a placement is an
// optimistic Claim against the authoritative table, which succeeds unless
// another scheduler claimed the same node after the snapshot was taken. A
// failed Claim is the conflict signal the scheduler's detect-and-retry loop
// consumes. Both engines commit through the one table: the simulator via
// ClusterView.Claim, the live engine under its central scheduler's lock.
//
// Claims are orthogonal to membership: enabling them never moves sampling
// off the static fast path, so a static cluster still draws bit-identically
// to the plain partition samplers.

// claimRec is the last successful claim on one node: the global version at
// which it happened and which scheduler made it.
type claimRec struct {
	ver uint64
	by  int32
}

// ClaimTable is the versioned claim state of the commit protocol: one
// record per node plus the global version every commit advances. It is a
// pure, clock-free kernel; the caller serializes access and layers its own
// notion of "the node is still there" on top (see ClusterView.Claim).
type ClaimTable struct {
	recs []claimRec
	ver  uint64
}

// NewClaimTable returns a table over node ids [0, nodes) with no node
// claimed and version 0.
func NewClaimTable(nodes int) *ClaimTable {
	return &ClaimTable{recs: make([]claimRec, nodes)}
}

// Version returns the current global claim version. A scheduler records it
// when snapshotting and passes it back as sinceVer on every Claim, which is
// how the table knows whether the claimant's information about a node
// predates a competing claim.
func (t *ClaimTable) Version() uint64 { return t.ver }

// Claim optimistically claims one placement slot on the node for scheduler
// `by`, whose snapshot was taken at claim version sinceVer. It fails —
// returning false and changing nothing — when a different scheduler claimed
// the node after sinceVer (the claimant could not have seen that placement;
// the slot count it placed against is stale). Claims by the same scheduler
// never conflict with each other: a scheduler always knows its own
// placements.
//
// On success the global version advances and the node's record is updated
// to it, so every commit is ordered and later claims can be tested against
// any snapshot version. Claim never allocates.
//
//hawk:hotpath
func (t *ClaimTable) Claim(id int, by int32, sinceVer uint64) bool {
	c := &t.recs[id]
	if c.ver > sinceVer && c.by != by {
		return false
	}
	t.ver++
	c.ver = t.ver
	c.by = by
	return true
}

// EnableClaims switches the view to claim tracking with no node claimed.
// Idempotent; must be called before Claim and ClaimVersion.
func (v *ClusterView) EnableClaims() {
	if v.claims == nil {
		v.claims = NewClaimTable(v.part.NumNodes())
	}
}

// ClaimVersion returns the view's current global claim version
// (ClaimTable.Version).
func (v *ClusterView) ClaimVersion() uint64 { return v.claims.Version() }

// Claim is ClaimTable.Claim gated on membership: a node that is not a live
// member cannot be claimed (it died unseen by the claimant's snapshot).
//
//hawk:hotpath
func (v *ClusterView) Claim(id int, by int32, sinceVer uint64) bool {
	if v.claims == nil {
		panic("core: Claim on a ClusterView without EnableClaims")
	}
	return v.Alive(id) && v.claims.Claim(id, by, sinceVer)
}
