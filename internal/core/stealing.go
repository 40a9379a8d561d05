package core

import "repro/internal/randdist"

// StealPolicy implements Hawk's randomized task stealing (§3.6). A node
// that runs out of work contacts up to Cap random general-partition nodes
// and steals, from the first that has one, the "eligible group": the first
// consecutive run of short tasks that comes after a long task (Figure 3).
type StealPolicy struct {
	// Cap bounds the number of random nodes contacted per attempt
	// (default 10, swept in Figure 15).
	Cap int
	// Enabled gates stealing entirely (the "Hawk w/o stealing" ablation).
	Enabled bool
}

// NewStealPolicy returns the paper's default stealing configuration.
func NewStealPolicy() StealPolicy {
	return StealPolicy{Cap: DefaultStealCap, Enabled: true}
}

// CandidatesInto appends the node ids a thief should contact, in contact
// order, to dst (pass nil to allocate) and returns the extended slice: up
// to Cap distinct random live members of the general partition, excluding
// the thief itself when it happens to be sampled (a node cannot steal from
// its own queue). With a reused per-simulation buffer the default steal
// path stays allocation-free (as does the random-position ablation's, via
// RandomShortIndicesInto). Victims come from the view, so a dynamic view
// never hands a thief a dead node; a static view draws identically to
// sampling the Partition directly.
//
//hawk:hotpath
func (s StealPolicy) CandidatesInto(dst []int, v *ClusterView, src *randdist.Source, thiefID int) []int {
	if !s.Enabled || s.Cap <= 0 {
		return dst
	}
	// Sample one extra so that dropping the thief still yields Cap
	// candidates when possible.
	start := len(dst)
	dst = v.SampleGeneralInto(dst, src, s.Cap+1)
	w := start
	for _, id := range dst[start:] {
		if id == thiefID {
			continue
		}
		dst[w] = id
		w++
		if w-start == s.Cap {
			break
		}
	}
	return dst[:w]
}

// EligibleGroup computes the stealable range of a victim's queue per
// Figure 3. isLong describes the queued entries head-first (true for long
// tasks); executingLong tells whether the victim is currently running a
// long task. The returned half-open range [start, end) is non-empty iff
// ok; entries in the range are all short.
//
// Cases (Figure 3):
//
//	b1/b2 — victim executing a long task: steal the consecutive short run
//	        at the head of the queue (those shorts queue behind the
//	        running long task).
//	a1/a2 — victim executing a short task: steal the consecutive short run
//	        immediately after the *first* long entry in the queue (the
//	        shorts before it will run soon anyway).
//
//hawk:hotpath
func EligibleGroup(executingLong bool, isLong []bool) (start, end int, ok bool) {
	if executingLong {
		end = 0
		for end < len(isLong) && !isLong[end] {
			end++
		}
		return 0, end, end > 0
	}
	// Find the first long entry.
	firstLong := -1
	for i, l := range isLong {
		if l {
			firstLong = i
			break
		}
	}
	if firstLong == -1 {
		return 0, 0, false
	}
	start = firstLong + 1
	end = start
	for end < len(isLong) && !isLong[end] {
		end++
	}
	return start, end, end > start
}

// RandomShortIndicesInto appends count indices of short entries, drawn
// uniformly at random from the whole queue and sorted in increasing order,
// to dst, and returns the extended slice alongside the (possibly grown)
// shorts workspace, which the caller retains for the next call. It
// implements the alternative stealing choice the paper argues *against*
// (§3.6): "If short tasks were stolen from random positions in server
// queues that would likely end up focusing on too many jobs at the same
// time while failing to improve most." The ablation experiments use it to
// quantify that design argument. When both buffers have capacity the call
// performs zero heap allocations, so the random-position ablation sweeps
// are as allocation-free as the default Figure 3 rule; the simulator
// threads both buffers through per-simulation scratch.
//
//hawk:hotpath
func RandomShortIndicesInto(dst, shorts []int, isLong []bool, count int, src *randdist.Source) (picks, shortsBuf []int) {
	shorts = shorts[:0]
	for i, l := range isLong {
		if !l {
			shorts = append(shorts, i)
		}
	}
	if count > len(shorts) {
		count = len(shorts)
	}
	if count <= 0 {
		return dst, shorts
	}
	start := len(dst)
	dst = src.SampleWithoutReplacementInto(dst, len(shorts), count)
	for i := start; i < len(dst); i++ {
		dst[i] = shorts[dst[i]]
	}
	sortInts(dst[start:])
	return dst, shorts
}

// sortInts is a small insertion sort; steal groups are tiny, so pulling in
// package sort is not worth it here.
//
//hawk:hotpath
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
