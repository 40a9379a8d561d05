package policy

import (
	"repro/internal/core"
	"repro/internal/randdist"
)

// The Pool → node-set mapping is a pure function of the cluster view
// (partition + live membership), shared by every engine so a new Pool value
// needs exactly one dispatch site per operation. On a static view every
// operation reduces to the partition arithmetic it always was; on a dynamic
// view sizes and samples reflect live membership only.

// Size returns the live node count of the pool under a cluster view.
func (p Pool) Size(view *core.ClusterView) int {
	switch p {
	case PoolAll:
		return view.AliveAll()
	case PoolGeneral:
		return view.AliveGeneral()
	case PoolShort:
		return view.AliveShort()
	default:
		return 0
	}
}

// width returns the pool's node count under the static partition: its full
// membership, which is what Size reports until churn removes a node.
func (p Pool) width(part core.Partition) int {
	switch p {
	case PoolAll:
		return part.NumNodes()
	case PoolGeneral:
		return part.GeneralNodes()
	case PoolShort:
		return part.ShortOnlyNodes()
	default:
		return 0
	}
}

// IDs enumerates the pool's node ids under the static partition in
// increasing order — the full membership the pool starts from, regardless
// of later churn (engines apply membership transitions on top, e.g. via
// CentralQueue.Remove/Add).
func (p Pool) IDs(part core.Partition) []int {
	ids := make([]int, p.width(part))
	for i := range ids {
		if p == PoolGeneral {
			ids[i] = part.GeneralID(i)
		} else {
			ids[i] = i
		}
	}
	return ids
}

// Contains reports whether the pool spans node id under the partition
// (ignoring membership — pools are static sets; aliveness is the view's).
func (p Pool) Contains(part core.Partition, id int) bool {
	if id < 0 || id >= part.NumNodes() {
		return false
	}
	switch p {
	case PoolAll:
		return true
	case PoolGeneral:
		return part.IsGeneral(id)
	case PoolShort:
		return !part.IsGeneral(id)
	default:
		return false
	}
}

// SampleInto draws k distinct random live node ids from the pool, appends
// them to dst (pass nil to allocate) and returns the extended slice.
// The simulator threads a per-run buffer through here so probe placement
// performs zero heap allocations in steady state. On a static view the
// draws are bit-identical to sampling the Partition directly.
func (p Pool) SampleInto(dst []int, view *core.ClusterView, src *randdist.Source, k int) []int {
	switch p {
	case PoolAll:
		return view.SampleAllInto(dst, src, k)
	case PoolGeneral:
		return view.SampleGeneralInto(dst, src, k)
	case PoolShort:
		return view.SampleShortInto(dst, src, k)
	default:
		return dst
	}
}
