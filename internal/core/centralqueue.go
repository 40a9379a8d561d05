package core

import "slices"

// CentralQueue is the centralized scheduler's data structure (§3.7): a
// priority queue of <server, waiting time> tuples kept sorted by waiting
// time. The waiting time of a server is the sum of the estimated execution
// times of all long tasks in that server's queue plus the remaining
// estimated execution time of any long task currently executing there.
//
// The queue observes the lifecycle of the tasks it placed: the runtime
// reports TaskStarted and TaskFinished, which is what keeps the waiting
// times "timely and fairly accurate" (§3.7) even when actual task durations
// deviate from the estimates. Short tasks and probes are invisible to it,
// exactly as in the paper.
//
// Exact min-waiting extraction despite continuously decaying waiting times
// is achieved with two heaps:
//
//   - the running heap holds servers whose estimated running task extends
//     into the future (runEnd > now), keyed by runEnd + queued. All such
//     waiting times decay at unit rate, so their relative order is
//     time-invariant. A member whose runEnd slips into the past has true
//     waiting = queued >= key - now, so it can only be *under*-estimated
//     while buried in the heap — the root therefore stays the true minimum
//     of the heap once expired roots are migrated out.
//   - the idle heap holds the rest, keyed by queued (time-invariant).
//
// Assign compares the two roots' true waiting times and picks the smaller,
// so assignments are exactly min-waiting at every instant.
//
// The queue settles when somebody looks. Every method that takes now moves
// the clock (advance), but only the two that observe a root — Assign and
// MinWaiting — first run settle, which migrates expired running roots to
// the idle heap until the running root R is unexpired. TaskStarted,
// TaskFinished, AddLoad, Add and Remove re-seat one server by its own
// record, Waiting and Waitings read records, and SyncFrom copies whatever
// stands, so none of them migrates anybody else's: a mirror that hears
// only its own tasks between two snapshots (§4.10) pays nothing for the
// expiries a SyncFrom is about to overwrite. The answers are those of a
// queue that migrated on every call. R is the same server either way: the
// unexpired minimum of a superset that contains it. A server X that such a
// queue would hold idle and this one still holds in the running heap has
// (key_R, id_R) < (key_X, id_X) and runEnd_X <= now, hence waiting(R) =
// key_R - now <= key_X - now <= queued_X = waiting(X), a tie falling to R
// by node id — X is not the answer wherever it sits, which is the argument
// above for a server that expires while buried. Every idle member with a
// larger (queued, id) than X loses to R the same way, so the idle root's
// absence changes nothing, and a mirror copied from an unsettled truth
// finishes the migration with its own settle. (In floats as on paper,
// unless now - runEnd_X and key_X - key_R are both within rounding of zero
// at the instant of an Assign; the eager queue kept as the test oracle has
// the same caveat for buried servers.)
//
// Layout: the whole queue is three pointer-free arrays — one server record
// per node id and the two heaps' slots, each slot carrying its ordering key
// inline — so a comparison reads two adjacent 16-byte slots instead of
// chasing two pointers, the garbage collector never scans the queue, and a
// queue is copied by copying the arrays (SyncFrom).
type CentralQueue struct {
	now float64
	// servers is indexed by node id; pos < 0 marks a node the queue does
	// not track. Node ids are dense per partition, so a slice lookup
	// replaces the obvious map.
	servers []server
	count   int        // tracked servers
	running serverHeap // key: runEnd + queued
	idle    serverHeap // key: queued
}

// server is one node's waiting-time state plus where its slot sits. Its
// size and pointer-freeness are pinned by TestCentralQueueLayout: SyncFrom
// copies one per node id on every snapshot refresh.
type server struct {
	runEnd float64 // estimated completion instant of the running long task
	queued float64 // summed estimates of queued long tasks
	pos    int32   // index of the server's slot in its heap; < 0 = untracked
	inRun  bool    // which heap: running (true) or idle
}

// key returns the ordering key for the heap the server occupies. Every
// mutation of runEnd, queued or inRun re-seats the server's slot with it.
func (s *server) key() float64 {
	if s.inRun {
		return s.runEnd + s.queued
	}
	return s.queued
}

// waiting returns the true waiting time at instant now.
func (s *server) waiting(now float64) float64 {
	w := s.queued
	if s.runEnd > now {
		w += s.runEnd - now
	}
	return w
}

// NewCentralQueue builds a queue over the given node ids, all initially
// idle (zero waiting time): four allocations regardless of cluster size.
// NewCentralQueue(nil) is an empty queue ready to be a SyncFrom target.
func NewCentralQueue(nodeIDs []int) *CentralQueue {
	maxID := -1
	for _, id := range nodeIDs {
		maxID = max(maxID, id)
	}
	q := &CentralQueue{}
	q.grow(maxID + 1)
	for _, id := range nodeIDs {
		q.Add(id, 0)
	}
	return q
}

// grow extends the id space to n node ids, the new ones untracked, and
// reserves room for n slots in each heap. A server sits in one heap at a
// time, so until the id space grows again no push and no SyncFrom from a
// queue this size reallocates — a mirror following a truth whose running
// heap fills up over a run would otherwise regrow by append's 1.25× on
// refresh after refresh.
func (q *CentralQueue) grow(n int) {
	if n <= len(q.servers) {
		return
	}
	q.servers = slices.Grow(q.servers, n-len(q.servers))
	for len(q.servers) < n {
		q.servers = append(q.servers, server{pos: -1})
	}
	q.running = slices.Grow(q.running, n-len(q.running))
	q.idle = slices.Grow(q.idle, n-len(q.idle))
}

// Len returns the number of servers tracked.
func (q *CentralQueue) Len() int { return q.count }

// lookup returns the tracked server for nodeID, or nil.
func (q *CentralQueue) lookup(nodeID int) *server {
	if nodeID < 0 || nodeID >= len(q.servers) || q.servers[nodeID].pos < 0 {
		return nil
	}
	return &q.servers[nodeID]
}

// heapOf returns the heap s's slot sits in.
func (q *CentralQueue) heapOf(s *server) *serverHeap {
	if s.inRun {
		return &q.running
	}
	return &q.idle
}

// advance moves the queue's clock to now; the clock never runs backwards.
//
//hawk:hotpath
func (q *CentralQueue) advance(now float64) {
	if now > q.now {
		q.now = now
	}
}

// settle migrates expired running roots to the idle heap — their tasks
// should have finished by their estimate, so their waiting no longer decays
// — until the running root is unexpired. Only a caller about to look at the
// roots (best) needs it; see the type comment.
//
//hawk:hotpath
func (q *CentralQueue) settle() {
	for len(q.running) > 0 {
		node := q.running[0].node
		s := &q.servers[node]
		if s.runEnd > q.now {
			break
		}
		q.running.remove(q.servers, 0)
		s.inRun = false
		q.idle.push(q.servers, slot{key: s.queued, node: node})
	}
}

// best returns the node with the smallest true waiting time at q.now; the
// queue must track at least one server.
//
//hawk:hotpath
func (q *CentralQueue) best() int {
	switch {
	case len(q.running) == 0:
		return int(q.idle[0].node)
	case len(q.idle) == 0:
		return int(q.running[0].node)
	}
	r, i := int(q.running[0].node), int(q.idle[0].node)
	wr, wi := q.servers[r].waiting(q.now), q.servers[i].waiting(q.now)
	if wr != wi {
		if wr < wi {
			return r
		}
		return i
	}
	return min(r, i)
}

// Assign places one task with the given estimated duration on the server
// with the smallest waiting time at instant now, bumps that server's
// waiting time, and returns the chosen node id along with the waiting time
// the scheduler expects the task to experience.
//
//hawk:hotpath
func (q *CentralQueue) Assign(now, estDuration float64) (nodeID int, waiting float64) {
	if q.count == 0 {
		panic("core: Assign on empty CentralQueue")
	}
	q.advance(now)
	q.settle()
	nodeID = q.best()
	s := &q.servers[nodeID]
	waiting = s.waiting(q.now)
	s.queued += estDuration
	q.heapOf(s).fix(q.servers, int(s.pos), s.key())
	return nodeID, waiting
}

// AddLoad bumps a specific server's queued-work estimate without choosing
// it: the multi-scheduler commit path picked the node on a scheduler's
// *local* queue (Assign there) and, after winning the claim, reflects the
// placement into the shared authoritative queue with AddLoad — so every
// scheduler's next snapshot sees the committed load. A node the queue does
// not track (removed by churn) is ignored. Never allocates.
//
//hawk:hotpath
func (q *CentralQueue) AddLoad(nodeID int, now, estDuration float64) {
	s := q.lookup(nodeID)
	if s == nil {
		return
	}
	q.advance(now)
	s.queued += estDuration
	q.heapOf(s).fix(q.servers, int(s.pos), s.key())
}

// SyncFrom makes this queue a copy of src: same clock, same tracked
// servers, same per-server waiting state. This is the snapshot primitive of
// the multi-scheduler model — how a scheduler's mirror is created and how
// its stale copy catches up to the shared authoritative queue — and it is
// three array copies: nothing in the representation points anywhere, and a
// copy of a heap's slots is the same heap, so there is nothing to rebuild.
// The mirror's decisions match what any other arrangement of the same
// servers would give (see serverHeap). It allocates only when src's id
// space is larger than any this queue has held, and the two queues share no
// memory afterwards.
//
//hawk:hotpath
func (q *CentralQueue) SyncFrom(src *CentralQueue) {
	q.now, q.count = src.now, src.count
	q.grow(len(src.servers))
	q.servers = append(q.servers[:0], src.servers...)
	q.running = append(q.running[:0], src.running...)
	q.idle = append(q.idle[:0], src.idle...)
}

// TaskStarted records that a previously assigned task began executing on
// nodeID at instant now: its estimate leaves the queued sum, and the
// running term is anchored to the duration the executing node reports
// (runDuration). Node monitors know the concrete task they launched, so
// the "remaining execution time of any long task that currently may be
// executing" (§3.7) tracks the real task rather than a stale estimate —
// without this, a server whose task overruns its estimate looks idle and
// attracts assignments while still busy. Callers without better knowledge
// may pass runDuration == estDuration.
//
//hawk:hotpath
func (q *CentralQueue) TaskStarted(nodeID int, now, estDuration, runDuration float64) {
	if q == nil {
		return
	}
	s := q.lookup(nodeID)
	if s == nil {
		return // node not tracked (e.g. outside the general partition)
	}
	q.advance(now)
	s.queued -= estDuration
	if s.queued < 0 {
		s.queued = 0
	}
	q.moveTo(nodeID, true, q.now+runDuration)
}

// TaskFinished records that the running task on nodeID completed at instant
// now, clearing the remaining-execution term.
//
//hawk:hotpath
func (q *CentralQueue) TaskFinished(nodeID int, now float64) {
	if q == nil || q.lookup(nodeID) == nil {
		return
	}
	q.advance(now)
	q.moveTo(nodeID, false, q.now)
}

// moveTo places the tracked server in the requested heap with the new
// runEnd.
//
//hawk:hotpath
func (q *CentralQueue) moveTo(nodeID int, running bool, runEnd float64) {
	s := &q.servers[nodeID]
	q.heapOf(s).remove(q.servers, int(s.pos))
	s.runEnd = runEnd
	s.inRun = running && runEnd > q.now
	q.heapOf(s).push(q.servers, slot{key: s.key(), node: int32(nodeID)})
}

// Remove stops tracking nodeID — the node left the cluster (failure or
// drain). Estimated work attributed to the server is discarded; the runtime
// re-routes the concrete tasks it knows were queued or running there. It
// reports whether the node was tracked. Rare-path: membership transitions,
// not assignment.
func (q *CentralQueue) Remove(nodeID int) bool {
	s := q.lookup(nodeID)
	if s == nil {
		return false
	}
	q.heapOf(s).remove(q.servers, int(s.pos))
	s.pos = -1
	q.count--
	return true
}

// Add starts (or resumes) tracking nodeID as an idle server with zero
// waiting time at instant now — the node joined or rejoined the cluster.
// It reports whether the node was newly added (false if already tracked).
// A node id the queue has seen before costs no allocation.
func (q *CentralQueue) Add(nodeID int, now float64) bool {
	if nodeID < 0 || q.lookup(nodeID) != nil {
		return false
	}
	q.advance(now)
	q.grow(nodeID + 1)
	q.servers[nodeID] = server{runEnd: q.now}
	q.idle.push(q.servers, slot{node: int32(nodeID)})
	q.count++
	return true
}

// MinWaiting returns the smallest waiting time across servers at instant
// now: the queueing delay the next assigned task would see.
func (q *CentralQueue) MinWaiting(now float64) float64 {
	if q.count == 0 {
		return 0
	}
	q.advance(now)
	q.settle()
	return q.servers[q.best()].waiting(q.now)
}

// Waiting returns the waiting time of a specific server at instant now, or
// -1 if the server is not tracked.
func (q *CentralQueue) Waiting(nodeID int, now float64) float64 {
	s := q.lookup(nodeID)
	if s == nil {
		return -1
	}
	q.advance(now)
	return s.waiting(q.now)
}

// Waitings returns the waiting time of every tracked server at instant now,
// in unspecified order. Intended for tests and introspection.
func (q *CentralQueue) Waitings(now float64) []float64 {
	q.advance(now)
	out := make([]float64, 0, q.count)
	for i := range q.servers {
		if s := &q.servers[i]; s.pos >= 0 {
			out = append(out, s.waiting(q.now))
		}
	}
	return out
}

// slot is one heap entry: a server and the key it is ordered by, stored
// inline so sifting compares slots in place. The key is the server's key()
// as of its last mutation — the same float expression a comparison would
// recompute, so ordering is bit-identical to recomputing it. Size and
// pointer-freeness pinned by TestCentralQueueLayout: every sift step moves
// one.
type slot struct {
	key  float64
	node int32
}

// less orders slots by key with node id breaking ties: a strict total order
// over a heap's members.
func (a slot) less(b slot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.node < b.node
}

// serverHeap is an indexed binary min-heap of slots; every method takes the
// server array so it can keep each moved server's pos pointing at its slot.
// Like internal/eventq's event heap it is hand-rolled rather than built on
// container/heap, which moves elements through interface{} and pays an
// indirect call per comparison and swap. Sifting moves a hole instead of
// swapping: one slot write and one pos write per level.
//
// Only the root is ever observed (best, settle); every other access is by
// node id through pos. Since less is a strict total order the root is the
// same server in every valid arrangement of the same members, so scheduling
// decisions do not depend on the arrangement — which is why SyncFrom may
// copy a heap as it stands and why the sift order is free to differ from
// container/heap's.
type serverHeap []slot

//hawk:hotpath
func (h *serverHeap) push(srv []server, s slot) {
	*h = append(*h, s)
	h.up(srv, len(*h)-1, s)
}

// remove deletes the slot at position i; the caller owns the removed
// server's pos.
//
//hawk:hotpath
func (h *serverHeap) remove(srv []server, i int) {
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if i != n {
		h.seat(srv, i, last)
	}
}

// fix re-seats the slot at position i after its server's key changed.
//
//hawk:hotpath
func (h serverHeap) fix(srv []server, i int, key float64) {
	h.seat(srv, i, slot{key: key, node: h[i].node})
}

// seat writes s into the heap given a hole at position i, sifting the hole
// up or down to where s belongs.
//
//hawk:hotpath
func (h serverHeap) seat(srv []server, i int, s slot) {
	if i > 0 && s.less(h[(i-1)/2]) {
		h.up(srv, i, s)
	} else {
		h.down(srv, i, s)
	}
}

// up moves the hole at i towards the root until s may sit in it.
//
//hawk:hotpath
func (h serverHeap) up(srv []server, i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		srv[h[i].node].pos = int32(i)
		i = parent
	}
	h[i] = s
	srv[s.node].pos = int32(i)
}

// down moves the hole at i towards the leaves until s may sit in it.
//
//hawk:hotpath
func (h serverHeap) down(srv []server, i int, s slot) {
	for n := len(h); ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].less(h[child]) {
			child = right
		}
		if !h[child].less(s) {
			break
		}
		h[i] = h[child]
		srv[h[i].node].pos = int32(i)
		i = child
	}
	h[i] = s
	srv[s.node].pos = int32(i)
}
