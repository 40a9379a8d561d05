package core

import (
	"fmt"

	"repro/internal/randdist"
)

// ClusterView is the dynamic cluster model every engine schedules against:
// the static Partition (which node ids are reserved for short tasks), the
// live membership set (which nodes are currently up), and per-node speed
// factors (heterogeneous clusters run the same task at different rates).
//
// A view starts static: full membership, homogeneous speeds. In that state
// every sampling method delegates to the Partition's dense-range rejection
// sampler, drawing bit-for-bit identically to sampling from the Partition
// directly — the churn-free fast path costs one nil check. Engines that run
// failure/churn scenarios call EnableMembership once up front; from then on
// samples are drawn uniformly from the alive members of the requested pool.
//
// Membership is maintained as one compact alive-id list per partition side
// plus a per-node position index, so Fail and Recover are O(1) swap-remove/
// append and sampling k alive nodes is O(k) with zero allocations when the
// caller's scratch buffer has capacity — the same contract as the static
// samplers. The view is not safe for concurrent use; the live engine
// serializes access behind its cluster lock.
type ClusterView struct {
	part Partition

	// speed is nil for a homogeneous cluster; otherwise speed[id] is the
	// node's speed factor (> 0, 1 = nominal) and task durations scale by
	// 1/speed at the executing node.
	speed []float64

	// Membership state; all nil/unused until EnableMembership.
	alive        []bool
	shortAlive   []int32 // alive ids in the short partition (unordered)
	generalAlive []int32 // alive ids in the general partition (unordered)
	pos          []int32 // node id -> index within its side's alive list

	// Claim state; nil until EnableClaims (see claims.go).
	claims *ClaimTable
}

// NewClusterView returns a static view of the partition: full membership,
// homogeneous speeds.
func NewClusterView(part Partition) *ClusterView {
	return &ClusterView{part: part}
}

// Partition returns the underlying static partition.
func (v *ClusterView) Partition() Partition { return v.part }

// SetSpeeds installs per-node speed factors (index = node id; values must
// be positive). The slice is retained, not copied. Pass nil to restore a
// homogeneous view.
func (v *ClusterView) SetSpeeds(speed []float64) {
	if speed != nil && len(speed) != v.part.NumNodes() {
		panic(fmt.Sprintf("core: SetSpeeds with %d factors for %d nodes", len(speed), v.part.NumNodes()))
	}
	v.speed = speed
}

// Speed returns the node's speed factor (1 for a homogeneous view).
func (v *ClusterView) Speed(id int) float64 {
	if v.speed == nil {
		return 1
	}
	return v.speed[id]
}

// Speeds returns the per-node speed slice, or nil for a homogeneous view.
// Engines cache it to scale task durations without a method call per task.
func (v *ClusterView) Speeds() []float64 { return v.speed }

// Dynamic reports whether membership tracking is enabled.
func (v *ClusterView) Dynamic() bool { return v.alive != nil }

// EnableMembership switches the view to dynamic membership with every node
// initially alive. Sampling leaves the static fast path permanently: from
// here on draws come from the alive-id lists, so the random streams differ
// from a static view's even while all nodes are up.
func (v *ClusterView) EnableMembership() {
	if v.alive != nil {
		return
	}
	n := v.part.NumNodes()
	short := v.part.ShortOnlyNodes()
	v.alive = make([]bool, n)
	v.pos = make([]int32, n)
	v.shortAlive = make([]int32, short)
	v.generalAlive = make([]int32, n-short)
	for id := 0; id < n; id++ {
		v.alive[id] = true
		if id < short {
			v.shortAlive[id] = int32(id)
			v.pos[id] = int32(id)
		} else {
			v.generalAlive[id-short] = int32(id)
			v.pos[id] = int32(id - short)
		}
	}
}

// Alive reports whether the node is a live cluster member (always true for
// a static view).
//
//hawk:hotpath
func (v *ClusterView) Alive(id int) bool {
	if v.alive == nil {
		return true
	}
	return v.alive[id]
}

// AliveAll returns the number of live nodes in the whole cluster.
func (v *ClusterView) AliveAll() int {
	if v.alive == nil {
		return v.part.NumNodes()
	}
	return len(v.shortAlive) + len(v.generalAlive)
}

// AliveGeneral returns the number of live general-partition nodes.
func (v *ClusterView) AliveGeneral() int {
	if v.alive == nil {
		return v.part.GeneralNodes()
	}
	return len(v.generalAlive)
}

// AliveShort returns the number of live short-partition nodes.
func (v *ClusterView) AliveShort() int {
	if v.alive == nil {
		return v.part.ShortOnlyNodes()
	}
	return len(v.shortAlive)
}

// sideList returns the alive list holding id.
func (v *ClusterView) sideList(id int) *[]int32 {
	if id < v.part.ShortOnlyNodes() {
		return &v.shortAlive
	}
	return &v.generalAlive
}

// Fail removes the node from the membership set. It reports whether the
// node was alive. The view must be dynamic (EnableMembership).
func (v *ClusterView) Fail(id int) bool {
	if v.alive == nil {
		panic("core: Fail on a static ClusterView (call EnableMembership)")
	}
	if !v.alive[id] {
		return false
	}
	v.alive[id] = false
	list := v.sideList(id)
	l := *list
	i := v.pos[id]
	last := l[len(l)-1]
	l[i] = last
	v.pos[last] = i
	*list = l[:len(l)-1]
	return true
}

// Recover returns the node to the membership set. It reports whether the
// node was dead. The view must be dynamic (EnableMembership).
func (v *ClusterView) Recover(id int) bool {
	if v.alive == nil {
		panic("core: Recover on a static ClusterView (call EnableMembership)")
	}
	if v.alive[id] {
		return false
	}
	v.alive[id] = true
	list := v.sideList(id)
	v.pos[id] = int32(len(*list))
	*list = append(*list, int32(id))
	return true
}

// AppendDead appends the ids of all dead nodes to dst in increasing id
// order and returns the extended slice. O(NumNodes); intended for rare
// scenario events (picking random nodes to recover), not hot paths.
func (v *ClusterView) AppendDead(dst []int) []int {
	if v.alive == nil {
		return dst
	}
	for id, up := range v.alive {
		if !up {
			dst = append(dst, id)
		}
	}
	return dst
}

// SampleAllInto appends k distinct random live node ids (whole cluster) to
// dst and returns the extended slice. Static views draw identically to
// Partition.SampleAllInto; dynamic views draw uniformly from the alive set.
// Zero heap allocations when dst has capacity.
//
//hawk:hotpath
func (v *ClusterView) SampleAllInto(dst []int, src *randdist.Source, k int) []int {
	if v.alive == nil {
		return v.part.SampleAllInto(dst, src, k)
	}
	n := len(v.shortAlive) + len(v.generalAlive)
	if k > n {
		k = n
	}
	start := len(dst)
	dst = src.SampleWithoutReplacementInto(dst, n, k)
	short := len(v.shortAlive)
	for i := start; i < len(dst); i++ {
		if idx := dst[i]; idx < short {
			dst[i] = int(v.shortAlive[idx])
		} else {
			dst[i] = int(v.generalAlive[idx-short])
		}
	}
	return dst
}

// SampleGeneralInto appends k distinct random live general-partition node
// ids to dst; see SampleAllInto.
//
//hawk:hotpath
func (v *ClusterView) SampleGeneralInto(dst []int, src *randdist.Source, k int) []int {
	if v.alive == nil {
		return v.part.SampleGeneralInto(dst, src, k)
	}
	if k > len(v.generalAlive) {
		k = len(v.generalAlive)
	}
	start := len(dst)
	dst = src.SampleWithoutReplacementInto(dst, len(v.generalAlive), k)
	for i := start; i < len(dst); i++ {
		dst[i] = int(v.generalAlive[dst[i]])
	}
	return dst
}

// SampleShortInto appends k distinct random live short-partition node ids
// to dst; see SampleAllInto.
//
//hawk:hotpath
func (v *ClusterView) SampleShortInto(dst []int, src *randdist.Source, k int) []int {
	if v.alive == nil {
		return v.part.SampleShortInto(dst, src, k)
	}
	if k > len(v.shortAlive) {
		k = len(v.shortAlive)
	}
	start := len(dst)
	dst = src.SampleWithoutReplacementInto(dst, len(v.shortAlive), k)
	for i := start; i < len(dst); i++ {
		dst[i] = int(v.shortAlive[dst[i]])
	}
	return dst
}

// String renders a one-line debug summary of the view's shape and state.
func (v *ClusterView) String() string {
	return fmt.Sprintf("view{%v alive=%d/%d dynamic=%v hetero=%v}",
		v.part, v.AliveAll(), v.part.NumNodes(), v.Dynamic(), v.speed != nil)
}
