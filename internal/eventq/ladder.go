package eventq

import "math"

// ladder is a calendar-queue ("ladder queue") timeline: a hierarchy of
// bucket arrays over a moving time window, with a sorted drain buffer at
// the bottom and an unsorted overflow tier at the top. It realizes the
// exact (at, seq) total order of eventHeap at amortized O(1) per
// operation: a push is one subtraction, one multiply, and one append; a
// pop is a copy out of a sorted run, with the sorting cost amortized one
// comparison-sort of a small bucket per bucket of events dispatched.
//
// # Structure
//
//	top     []event — unsorted, far-future events beyond rung 0's window
//	rungs   [0..depth) — bucket arrays; rung 0 is the outermost (widest)
//	        window, each deeper rung subdivides one bucket of its parent
//	bottom  []event — sorted ascending; events dispatch from bottom[head]
//
// Every event lives in exactly one tier. The tiers drain strictly in
// order: bottom first, then the innermost rung's remaining buckets, ...,
// then rung 0's remaining buckets, then top (which is then re-windowed
// into a fresh rung 0). A rung remembers the highest bucket it has
// already drained (cur); buckets at or below cur are empty — their
// contents moved to a deeper tier — so routing an incoming event at or
// below cur descends a level instead.
//
// # Determinism argument
//
// The heap dispatches in the total order (at, seq). The ladder dispatches
// the same order because
//
//  1. bucket partitioning respects timestamp order: an event's bucket
//     index idx(t) = int((t-start)*invWidth) is a monotone nondecreasing
//     function of t (for fixed start/invWidth), so every event in bucket
//     b has a timestamp <= every event in bucket b' > b;
//  2. routing is a pure function of the timestamp given the current
//     structure state: two events with equal timestamps pushed while the
//     structure is in compatible states take the same turns at every
//     rung (idx is deterministic in t; cur only advances when a bucket's
//     entire contents have moved to a deeper tier, so a later equal-t
//     push descends into exactly the tier holding its peers), and the
//     boundary clamps are identical on the push path and the
//     redistribution path — only rung 0 routes beyond-window events to
//     top, inner rungs clamp them into their last bucket;
//  3. every sorted stage (bucket promotion, bottom insertion) orders by
//     the full (at, seq) key, so within a bucket the FIFO tie-break is
//     exact, including ReserveSeqs events that arrive late with low
//     sequence numbers: a reserved event pushed while its equal-t peers
//     sit in bottom is binary-search inserted ahead of them.
//
// # Zero allocation in steady state
//
// All storage is recycled: promoting a bucket copies it into bottom and
// hands the cleared array back to the rung, retired rungs are pooled
// with their bucket arrays for the next spawn (carve pre-sizes any
// bucket whose capacity is below its counted incoming population), and
// top compacts in place on re-windowing. The heavily-populated bucket
// arrays additionally circulate through a ladder-wide spare pool
// (sparePool): the buckets just ahead of a rung's drain point absorb
// the stream of newly scheduled near-term events and shift with the
// sweep, so their capacity migrates through the pool — a draining
// bucket donates its array, a growing bucket adopts it — instead of
// every (depth, index) slot learning the peak population on its own.
// Storage therefore converges on the workload's high-water shape, after
// which push/front/advance allocate nothing.
type ladder[E any] struct {
	bottom []event[E] // sorted drain buffer; live region is bottom[head:]
	head   int        // index of the next event to dispatch
	rungs  []*rung[E] // rungs[:depth] are live; the rest are pooled for reuse
	depth  int
	top    []event[E] // unsorted overflow beyond rung 0's window
	n      int        // total pending events across all tiers
	// pool circulates the largest drained bucket arrays, shared by every
	// rung: the buckets just ahead of a rung's drain point absorb the
	// continuous stream of newly scheduled near-term events, far beyond
	// any redistribute count, and the sweep moves that pressure from
	// bucket to bucket — and, through spills and re-windows, from rung
	// to rung. Rather than letting every (depth, index) bucket slot
	// learn that capacity independently, a draining bucket's array lands
	// here when it beats the smallest spare, and a bucket about to
	// outgrow its own array adopts the tightest sufficient spare instead
	// of allocating (see rung.grow, rung.carve, rung.drained).
	pool sparePool[E]
}

type rung[E any] struct {
	buckets  [nbuckets][]event[E]
	start    float64 // timestamp of the left edge of bucket 0
	invWidth float64 // buckets per second
	cur      int     // highest bucket already drained; -1 when fresh
}

// sparePool holds cleared bucket arrays in circulation for adoption.
// Fixed slots, scanned linearly: it is touched only on bucket growth
// and drain, never on the per-event fast path.
type sparePool[E any] struct {
	s [nspares][]event[E]
}

// take removes and returns the smallest spare with capacity at least
// need, or nil when none qualifies. Tightest-fit keeps the biggest
// spares for the buckets that grow furthest.
func (p *sparePool[E]) take(need int) []event[E] {
	best := -1
	for i := 0; i < nspares; i++ {
		if c := cap(p.s[i]); c >= need && (best < 0 || c < cap(p.s[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	s := p.s[best][:0]
	p.s[best] = nil
	return s
}

// put offers a (cleared) array back to the pool, replacing the smallest
// slot if the offer beats it.
func (p *sparePool[E]) put(s []event[E]) {
	mi := 0
	for i := 1; i < nspares; i++ {
		if cap(p.s[i]) < cap(p.s[mi]) {
			mi = i
		}
	}
	if cap(s) > cap(p.s[mi]) {
		p.s[mi] = s[:0]
	}
}

const (
	// nbuckets is the fan-out per rung. 64 keeps a rung at ~1.5 KiB of
	// slice headers while giving span/64 resolution per level; two
	// levels resolve a window 4k-fold.
	nbuckets = 64
	nbF      = float64(nbuckets)

	// spillThreshold is the bucket size above which a bucket is
	// re-bucketed into a deeper rung instead of sorted directly:
	// insertion sort below it is cheap, and spilling above it keeps the
	// per-bucket sort small even when timestamps cluster.
	spillThreshold = 64

	// bottomSpawn bounds the sorted-insert buffer: when the live bottom
	// region outgrows it (a burst of near-term scheduling), the buffer
	// is re-bucketed into a fresh rung so inserts stay O(1) amortized.
	bottomSpawn = 256

	// maxRungs bounds recursion for pathological timestamp
	// distributions (e.g. clusters tighter than float64 resolution);
	// at the bound, buckets are sorted whatever their size.
	maxRungs = 12

	// insertionSortMax is the run length above which sortEvents switches
	// from insertion sort to heapsort. Promoted buckets are normally
	// under spillThreshold; larger runs only appear when spilling is
	// exhausted (degenerate spans), where insertion sort could go
	// quadratic.
	insertionSortMax = 64

	// smallTopPromote is the overflow-tier size at or below which
	// re-windowing skips the rung machinery and promotes the whole tier
	// as one sorted run: sorting ~a bucket's worth of events is cheaper
	// than fanning them across nbuckets buckets and draining those. This is
	// the common regime for shallow queues (a lightly loaded engine
	// oscillates between a near-empty top and an empty bottom).
	smallTopPromote = 2 * spillThreshold

	// topFanout and minWindowEvents size rung 0's window when
	// re-windowing: the window targets len(top)/topFanout events, at
	// least minWindowEvents, estimated from the tier's average gap. A
	// full-span window would make rung 0 live for most of the run, and
	// its buckets would then accumulate every event scheduled into the
	// window while it drains — O(total events) storage, which is what
	// the heap backend's single array never pays. A narrow window keeps
	// rung 0 short-lived and small; far-future events stay parked in
	// top (one flat array at its high-water capacity) until a later
	// re-window reaches them. The 1/topFanout fraction keeps the
	// re-window scans amortized O(topFanout) per dispatched event, and
	// the floor stops a huge sparse tier from being nibbled 128 events
	// at a time.
	topFanout       = 8
	minWindowEvents = 256

	// minGrow is the bucket capacity at which push routes an outgrowing
	// bucket through rung.grow (spare adoption or 4x regrowth) instead
	// of leaving it to append's doubling; tiny buckets aren't worth the
	// branch. minAdopt additionally gates spare adoption within grow:
	// only the hammered buckets ahead of the drain point reach it, so
	// the circulating arrays aren't claimed by buckets that would have
	// stopped growing anyway.
	minGrow  = 8
	minAdopt = 32

	// nspares is the number of drained arrays the ladder keeps in
	// circulation for adoption, across all rungs.
	nspares = 8
)

// newLadder pre-sizes the overflow tier, which is where a pre-loaded
// schedule (events pushed before the first pop) accumulates, and gives
// the drain buffer a head start (its steady-state size is bounded by the
// bottomSpawn re-bucketing threshold plus the largest promoted bucket).
func newLadder[E any](capacity int) *ladder[E] {
	l := &ladder[E]{}
	if capacity > 0 {
		l.top = make([]event[E], 0, capacity)
		bc := capacity
		if bc > 2*bottomSpawn {
			bc = 2 * bottomSpawn
		}
		l.bottom = make([]event[E], 0, bc)
	}
	return l
}

// push routes ev to its tier: the deepest rung whose undrained region
// covers ev.at, or top (beyond rung 0's window), or the sorted bottom
// buffer (at or below every rung's drain point).
func (l *ladder[E]) push(ev event[E]) {
	l.n++
	for i := 0; i < l.depth; i++ {
		r := l.rungs[i]
		f := (ev.at - r.start) * r.invWidth
		b := 0
		if f >= nbF {
			if i == 0 {
				// Beyond the outermost window: far-future
				// overflow. Only rung 0 may route here — an
				// inner rung's events must all fire before
				// its parent's later buckets, so inner rungs
				// clamp instead (below).
				l.top = append(l.top, ev)
				return
			}
			b = nbuckets - 1
		} else if f > 0 {
			b = int(f)
		}
		if b > r.cur {
			bkt := r.buckets[b]
			if len(bkt) == cap(bkt) && cap(bkt) >= minGrow {
				bkt = r.grow(bkt, &l.pool)
			}
			bkt = append(bkt, ev)
			r.buckets[b] = bkt
			return
		}
		// Bucket already drained into a deeper tier; descend so the
		// event joins whatever now holds its equal-timestamp peers.
	}
	if l.depth == 0 && l.head >= len(l.bottom) {
		// Idle structure (nothing draining): everything parks in top
		// until the first pop re-windows it.
		l.top = append(l.top, ev)
		return
	}
	l.insertBottom(ev)
}

// insertBottom binary-search inserts ev into the sorted live region
// bottom[head:], and re-buckets the buffer into a fresh rung if a burst
// of near-term scheduling has made it large.
func (l *ladder[E]) insertBottom(ev event[E]) {
	if l.head > 0 && len(l.bottom) == cap(l.bottom) {
		// Compact the drained prefix away instead of growing.
		n := copy(l.bottom, l.bottom[l.head:])
		clear(l.bottom[n:])
		l.bottom = l.bottom[:n]
		l.head = 0
	}
	lo, hi := l.head, len(l.bottom)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if eventLess(&l.bottom[m], &ev) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	l.bottom = append(l.bottom, event[E]{})
	copy(l.bottom[lo+1:], l.bottom[lo:])
	l.bottom[lo] = ev

	if len(l.bottom)-l.head > bottomSpawn && l.depth < maxRungs {
		live := l.bottom[l.head:]
		// bottom is sorted, so its span is last minus first — O(1).
		if s, e := live[0].at, live[len(live)-1].at; e > s {
			if l.spawnRung(live, s, e) {
				clear(l.bottom)
				l.bottom = l.bottom[:0]
				l.head = 0
			}
		}
	}
}

// front returns the earliest pending event, or nil when empty. It may
// promote a bucket into bottom, spill a skewed bucket into a deeper rung,
// or re-window the overflow tier — none of which changes the dispatch
// order. The returned pointer is valid until the next engine operation.
func (l *ladder[E]) front() *event[E] {
	for {
		if l.head < len(l.bottom) {
			return &l.bottom[l.head]
		}
		if l.n == 0 {
			return nil
		}
		// Bottom fully drained: recycle it (advance already zeroed
		// the dispatched slots) and pull the next sorted run.
		l.bottom = l.bottom[:0]
		l.head = 0
		promoted := false
		for l.depth > 0 {
			r := l.rungs[l.depth-1]
			b := r.next()
			if b < 0 {
				// Rung exhausted; retire it. Its (empty)
				// buckets keep their capacity for the next
				// spawn.
				l.depth--
				continue
			}
			bkt := r.buckets[b]
			if len(bkt) > spillThreshold && l.depth < maxRungs {
				if s, e := eventSpan(bkt); e > s {
					if l.spawnRung(bkt, s, e) {
						r.drained(b, &l.pool)
						continue
					}
				}
			}
			// Promote: copy the bucket into the drain buffer and
			// hand the (cleared) bucket chunk back to the rung.
			// Copying rather than swapping storage keeps bottom's
			// capacity converging on the largest promoted run and
			// leaves the rung's arena intact, so growth
			// allocations stop once the workload's shape has been
			// seen.
			l.bottom = append(l.bottom[:0], bkt...)
			r.drained(b, &l.pool)
			sortEvents(l.bottom)
			promoted = true
			break
		}
		if promoted {
			continue
		}
		// Every rung drained and n > 0: the remaining events are all
		// in top. Re-window it into a fresh rung 0.
		l.rewindowTop()
	}
}

// advance consumes the event front returned: zero its slot (dropping
// payload references, matching the heap's pop) and move the drain point.
func (l *ladder[E]) advance() {
	l.bottom[l.head] = event[E]{}
	l.head++
	l.n--
}

// carve prepares the rung's buckets for a redistribution whose
// per-bucket population the caller has counted: any bucket whose pooled
// capacity is below its incoming count is regrown once, to 2x the count
// (headroom for the direct pushes that land in the rung afterward), so
// the redistribution never walks an append-doubling series. Exact counts
// matter: event timestamps are heavily skewed toward the window's near
// edge, so uniform pre-sizing would either waste most of its slots or
// overflow the dense buckets. Buckets keep their arrays across spawns
// (the pool in ladder.rungs preserves them), so each one converges on
// the largest population its (depth, index) slot ever sees and the
// regrows stop.
func (r *rung[E]) carve(counts *[nbuckets]int32, pool *sparePool[E]) {
	for i := 0; i < nbuckets; i++ {
		c := int(counts[i])
		if cap(r.buckets[i]) >= c {
			continue
		}
		// A circulating spare that fits is a free swap, since every
		// bucket is empty at spawn; the outgrown array goes back to
		// the pool for a smaller bucket to claim.
		if s := pool.take(c); s != nil {
			pool.put(r.buckets[i][:0])
			r.buckets[i] = s
			continue
		}
		r.buckets[i] = make([]event[E], 0, 2*c)
	}
}

// drained recycles a bucket whose contents have just moved to another
// tier: zero the live slots (dropping payload references) and reset the
// length. An array bigger than the smallest circulating spare is
// swapped into the pool (the bucket gets that spare in exchange): the
// hammered buckets sit just ahead of the drain point and shift with it
// every generation, so capacity must migrate with the sweep rather
// than stay parked at whatever (depth, index) slot last happened to be
// under the hammer.
func (r *rung[E]) drained(b int, pool *sparePool[E]) {
	bkt := r.buckets[b]
	clear(bkt)
	mi := 0
	for i := 1; i < nspares; i++ {
		if cap(pool.s[i]) < cap(pool.s[mi]) {
			mi = i
		}
	}
	if cap(bkt) > cap(pool.s[mi]) {
		r.buckets[b] = pool.s[mi][:0]
		pool.s[mi] = bkt[:0]
	} else {
		r.buckets[b] = bkt[:0]
	}
}

// grow moves a full bucket to a larger array: ideally the tightest
// circulating spare that at least doubles it (a free swap — the one
// copy replaces the rest of a growth series), failing that any strictly
// larger spare (a shorter stride, but still allocation-free), and only
// when the pool has nothing bigger a fresh array at 4x. Quadrupling,
// not doubling: a geometric series to capacity N totals ~2N event slots
// of allocation at ratio 2 but ~1.3N at ratio 4, with half the copies,
// and the overshoot is not waste — outgrown arrays circulate through
// the spare pool and every array is reused across rung generations.
func (r *rung[E]) grow(bkt []event[E], pool *sparePool[E]) []event[E] {
	var s []event[E]
	if cap(bkt) >= minAdopt {
		if s = pool.take(2 * cap(bkt)); s == nil {
			s = pool.take(cap(bkt) + 1)
		}
	}
	if s == nil {
		s = make([]event[E], 0, 4*cap(bkt))
	}
	s = s[:len(bkt)]
	copy(s, bkt)
	clear(bkt)
	pool.put(bkt[:0])
	return s
}

// next scans for the rung's next non-empty bucket, marking it as the
// drain point. It returns -1 when the rung is exhausted.
func (r *rung[E]) next() int {
	for i := r.cur + 1; i < nbuckets; i++ {
		if len(r.buckets[i]) > 0 {
			r.cur = i
			return i
		}
	}
	return -1
}

// spawnRung redistributes src (spanning [lo, hi], hi > lo) into a fresh
// innermost rung whose nbuckets-1 inner buckets tile the span — the last
// bucket additionally catches boundary rounding, exactly as the push
// path's clamp does. It reports false, leaving the structure unchanged,
// when the span is too degenerate to subdivide (width underflows or is
// infinite); the caller then falls back to sorting.
func (l *ladder[E]) spawnRung(src []event[E], lo, hi float64) bool {
	width := (hi - lo) / (nbF - 1)
	inv := 1 / width
	if !(inv > 0) || math.IsInf(inv, 0) {
		return false
	}
	// Count pass, then carve exact-fit chunks, then scatter: the
	// redistribution allocates at most once (the arena ratchet) however
	// skewed src's timestamps are.
	var counts [nbuckets]int32
	for i := range src {
		f := (src[i].at - lo) * inv
		b := 0
		if f >= nbF {
			b = nbuckets - 1
		} else if f > 0 {
			b = int(f)
		}
		counts[b]++
	}
	r := l.getRung()
	r.carve(&counts, &l.pool)
	r.start = lo
	r.invWidth = inv
	r.cur = -1
	for i := range src {
		f := (src[i].at - lo) * inv
		b := 0
		if f >= nbF {
			b = nbuckets - 1
		} else if f > 0 {
			b = int(f)
		}
		r.buckets[b] = append(r.buckets[b], src[i])
	}
	l.depth++
	return true
}

// getRung returns a pooled retired rung, or grows the pool. A retired
// rung's arena keeps its capacity; the caller carves it for the spawn.
func (l *ladder[E]) getRung() *rung[E] {
	if l.depth == len(l.rungs) {
		l.rungs = append(l.rungs, &rung[E]{})
	}
	return l.rungs[l.depth]
}

// rewindowTop rebuilds rung 0 over the near end of the overflow tier: a
// window sized for ~len(top)/topFanout events (see topFanout). Events
// beyond the window stay in top, compacted in place, awaiting a
// later re-window. Called only when every rung has drained, so depth is
// 0 and bottom is empty. A small tier (<= smallTopPromote) or a
// degenerate span (all one timestamp, or too wide for float64) promotes
// the whole tier to bottom as a single sorted run instead.
func (l *ladder[E]) rewindowTop() {
	lo, hi := eventSpan(l.top)
	// Per-bucket width from the tier's average gap, sized so the window
	// captures ~target of the nearest events; clamped to the full span
	// so a small tier still tiles completely (the nbuckets-1 divisor
	// leaves the last bucket catching boundary rounding, as in
	// spawnRung).
	target := float64(len(l.top)) * (1.0 / topFanout)
	if target < minWindowEvents {
		target = minWindowEvents
	}
	width := (hi - lo) * target / (float64(len(l.top)) * (nbF - 1))
	if maxW := (hi - lo) / (nbF - 1); width > maxW {
		width = maxW
	}
	inv := 1 / width
	if len(l.top) <= smallTopPromote || !(inv > 0) || math.IsInf(inv, 0) {
		l.bottom = append(l.bottom[:0], l.top...)
		clear(l.top)
		l.top = l.top[:0]
		l.head = 0
		sortEvents(l.bottom)
		// depth stays 0 with a non-empty bottom: pushes insert into
		// bottom directly (top is empty, so the sorted buffer is the
		// whole structure and comparison order is trivially exact).
		return
	}
	// Count pass over the tier, then carve exact-fit chunks, then
	// scatter in-window events while compacting the keepers in place.
	var counts [nbuckets]int32
	win := 0
	for i := range l.top {
		f := (l.top[i].at - lo) * inv
		if f >= nbF {
			continue
		}
		b := 0
		if f > 0 {
			b = int(f)
		}
		counts[b]++
		win++
	}
	r := l.getRung()
	r.carve(&counts, &l.pool)
	r.start = lo
	r.invWidth = inv
	r.cur = -1
	keep := 0
	for i := range l.top {
		f := (l.top[i].at - lo) * inv
		if f >= nbF {
			l.top[keep] = l.top[i]
			keep++
			continue
		}
		b := 0
		if f > 0 {
			b = int(f)
		}
		r.buckets[b] = append(r.buckets[b], l.top[i])
	}
	clear(l.top[keep:])
	l.top = l.top[:keep]
	l.depth = 1
}

// eventSpan returns the min and max timestamp in s, which must be
// non-empty.
func eventSpan[E any](s []event[E]) (lo, hi float64) {
	lo, hi = s[0].at, s[0].at
	for i := 1; i < len(s); i++ {
		if s[i].at < lo {
			lo = s[i].at
		}
		if s[i].at > hi {
			hi = s[i].at
		}
	}
	return lo, hi
}

// sortEvents orders s by (at, seq): insertion sort for the small runs
// bucket promotion normally produces (and for its nearly-sorted best
// case — bottom-spawned buckets arrive pre-sorted), heapsort beyond
// insertionSortMax so degenerate runs stay O(n log n). Hand-rolled
// because sort.Slice boxes through interface{} and allocates its
// closure; the imports analyzer bans sort in hot-path packages.
func sortEvents[E any](s []event[E]) {
	if len(s) <= insertionSortMax {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && eventLess(&s[j], &s[j-1]); j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	// Heapsort: build a max-heap, then swap the max to the tail.
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftDownMax(s, i, len(s))
	}
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDownMax(s, 0, end)
	}
}

// siftDownMax restores the max-heap property for s[:n] at root i, ordering
// by (at, seq).
func siftDownMax[E any](s []event[E], i, n int) {
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		j := left
		if right := left + 1; right < n && eventLess(&s[left], &s[right]) {
			j = right
		}
		if !eventLess(&s[i], &s[j]) {
			return
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}
