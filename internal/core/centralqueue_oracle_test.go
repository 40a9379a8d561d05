package core

// The pointer-based CentralQueue this package shipped until PR 14, kept
// verbatim (names unexported, hotpath directives dropped) as the reference
// FuzzCentralQueueVsOracle and TestCentralQueueVsOracle compare the
// slot-array implementation against: servers are heap-allocated records
// reached through []*oracleServer, heap keys are recomputed per comparison,
// and SyncFrom copies server by server and heapifies. Do not optimize it —
// its value is that it is obviously the §3.7 rule.

// oracleQueue is the reference implementation of CentralQueue.
type oracleQueue struct {
	now float64
	// servers is indexed by node id (nil = node not tracked). Node ids are
	// dense per partition, so a slice lookup replaces the obvious map: the
	// queue is rebuilt for every simulation in a sweep, and a map would
	// cost one allocation per server plus bucket churn on every rebuild.
	servers []*oracleServer
	// states is the backing arena the servers pointers index into; kept so
	// SyncFrom can rebuild the queue in place without reallocating it.
	states  []oracleServer
	count   int        // tracked servers (non-nil entries)
	running oracleHeap // key: runEnd + queued
	idle    oracleHeap // key: queued
}

type oracleServer struct {
	nodeID  int
	runEnd  float64 // estimated completion instant of the running long task
	queued  float64 // summed estimates of queued long tasks
	heapIdx int
	inRun   bool
}

// key returns the heap ordering key for the heap the server currently
// occupies.
func (s *oracleServer) key() float64 {
	if s.inRun {
		return s.runEnd + s.queued
	}
	return s.queued
}

// waiting returns the true waiting time at instant now.
func (s *oracleServer) waiting(now float64) float64 {
	w := s.queued
	if s.runEnd > now {
		w += s.runEnd - now
	}
	return w
}

// newOracleQueue builds a queue over the given node ids, all initially
// idle (zero waiting time). Server state is allocated as one block — three
// allocations total regardless of cluster size.
func newOracleQueue(nodeIDs []int) *oracleQueue {
	maxID := -1
	for _, id := range nodeIDs {
		if id > maxID {
			maxID = id
		}
	}
	q := &oracleQueue{
		servers: make([]*oracleServer, maxID+1),
		count:   len(nodeIDs),
	}
	q.states = make([]oracleServer, len(nodeIDs))
	q.idle.items = make([]*oracleServer, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		s := &q.states[i]
		s.nodeID = id
		q.servers[id] = s
		q.idle.push(s)
	}
	return q
}

// Len returns the number of servers tracked.
func (q *oracleQueue) Len() int { return q.count }

// lookup returns the tracked server for nodeID, or nil.
func (q *oracleQueue) lookup(nodeID int) *oracleServer {
	if nodeID < 0 || nodeID >= len(q.servers) {
		return nil
	}
	return q.servers[nodeID]
}

func (q *oracleQueue) advance(now float64) {
	if now > q.now {
		q.now = now
	}
	// Migrate expired running roots: their tasks should have finished by
	// their estimate; their waiting no longer decays.
	for q.running.len() > 0 {
		root := q.running.peek()
		if root.runEnd > q.now {
			break
		}
		q.running.remove(root)
		root.inRun = false
		q.idle.push(root)
	}
}

// best returns the server with the smallest true waiting time at q.now.
func (q *oracleQueue) best() *oracleServer {
	var r, i *oracleServer
	if q.running.len() > 0 {
		r = q.running.peek()
	}
	if q.idle.len() > 0 {
		i = q.idle.peek()
	}
	switch {
	case r == nil:
		return i
	case i == nil:
		return r
	}
	wr, wi := r.waiting(q.now), i.waiting(q.now)
	if wr != wi {
		if wr < wi {
			return r
		}
		return i
	}
	if r.nodeID < i.nodeID {
		return r
	}
	return i
}

// Assign places one task with the given estimated duration on the server
// with the smallest waiting time at instant now, bumps that server's
// waiting time, and returns the chosen node id along with the waiting time
// the scheduler expects the task to experience.
func (q *oracleQueue) Assign(now, estDuration float64) (nodeID int, waiting float64) {
	if q.count == 0 {
		panic("core: Assign on empty oracleQueue")
	}
	q.advance(now)
	s := q.best()
	waiting = s.waiting(q.now)
	s.queued += estDuration
	q.fix(s)
	return s.nodeID, waiting
}

// AddLoad bumps a specific server's queued-work estimate without choosing
// it: the multi-scheduler commit path picked the node on a scheduler's
// *local* queue (Assign there) and, after winning the claim, reflects the
// placement into the shared authoritative queue with AddLoad — so every
// scheduler's next snapshot sees the committed load. A node the queue does
// not track (removed by churn) is ignored. Never allocates.
func (q *oracleQueue) AddLoad(nodeID int, now, estDuration float64) {
	s := q.lookup(nodeID)
	if s == nil {
		return
	}
	q.advance(now)
	s.queued += estDuration
	q.fix(s)
}

// SyncFrom rebuilds this queue as a copy of src: same clock, same tracked
// servers, same per-server waiting state. This is the snapshot-refresh
// primitive of the multi-scheduler model — a scheduler's stale local queue
// catches up to the shared authoritative queue in one O(n) pass (bulk
// heapify, no per-server sift) and allocates nothing once its arenas have
// grown to src's size. The two queues share no memory afterwards.
func (q *oracleQueue) SyncFrom(src *oracleQueue) {
	q.now = src.now
	if cap(q.servers) < len(src.servers) {
		q.servers = make([]*oracleServer, len(src.servers))
	} else {
		q.servers = q.servers[:len(src.servers)]
		for i := range q.servers {
			q.servers[i] = nil
		}
	}
	if cap(q.states) < src.count {
		q.states = make([]oracleServer, src.count)
	} else {
		q.states = q.states[:src.count]
	}
	q.running.items = q.running.items[:0]
	q.idle.items = q.idle.items[:0]
	i := 0
	for id, ss := range src.servers {
		if ss == nil {
			continue
		}
		st := &q.states[i]
		i++
		*st = *ss
		q.servers[id] = st
		if st.inRun {
			q.running.items = append(q.running.items, st)
		} else {
			q.idle.items = append(q.idle.items, st)
		}
	}
	q.count = src.count
	q.running.heapify()
	q.idle.heapify()
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
func (q *oracleQueue) TaskStarted(nodeID int, now, estDuration, runDuration float64) {
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
	q.moveTo(s, true, q.now+runDuration)
}

// TaskFinished records that the running task on nodeID completed at instant
// now, clearing the remaining-execution term.
func (q *oracleQueue) TaskFinished(nodeID int, now float64) {
	if q == nil {
		return
	}
	s := q.lookup(nodeID)
	if s == nil {
		return
	}
	q.advance(now)
	q.moveTo(s, false, q.now)
}

// moveTo places the server in the requested heap with the new runEnd.
func (q *oracleQueue) moveTo(s *oracleServer, running bool, runEnd float64) {
	if s.inRun {
		q.running.remove(s)
	} else {
		q.idle.remove(s)
	}
	s.runEnd = runEnd
	s.inRun = running && runEnd > q.now
	if s.inRun {
		q.running.push(s)
	} else {
		q.idle.push(s)
	}
}

// fix restores heap order after s's key changed in place.
func (q *oracleQueue) fix(s *oracleServer) {
	if s.inRun {
		q.running.fix(s)
	} else {
		q.idle.fix(s)
	}
}

// Remove stops tracking nodeID — the node left the cluster (failure or
// drain). Estimated work attributed to the server is discarded; the runtime
// re-routes the concrete tasks it knows were queued or running there. It
// reports whether the node was tracked. Rare-path: membership transitions,
// not assignment.
func (q *oracleQueue) Remove(nodeID int) bool {
	s := q.lookup(nodeID)
	if s == nil {
		return false
	}
	if s.inRun {
		q.running.remove(s)
	} else {
		q.idle.remove(s)
	}
	q.servers[nodeID] = nil
	q.count--
	return true
}

// Add starts (or resumes) tracking nodeID as an idle server with zero
// waiting time at instant now — the node joined or rejoined the cluster.
// It reports whether the node was newly added (false if already tracked).
func (q *oracleQueue) Add(nodeID int, now float64) bool {
	if nodeID < 0 {
		return false
	}
	if q.lookup(nodeID) != nil {
		return false
	}
	q.advance(now)
	if nodeID >= len(q.servers) {
		grown := make([]*oracleServer, nodeID+1)
		copy(grown, q.servers)
		q.servers = grown
	}
	s := &oracleServer{nodeID: nodeID, runEnd: q.now}
	q.servers[nodeID] = s
	q.idle.push(s)
	q.count++
	return true
}

// MinWaiting returns the smallest waiting time across servers at instant
// now: the queueing delay the next assigned task would see.
func (q *oracleQueue) MinWaiting(now float64) float64 {
	if q.count == 0 {
		return 0
	}
	q.advance(now)
	return q.best().waiting(q.now)
}

// Waiting returns the waiting time of a specific server at instant now, or
// -1 if the server is not tracked.
func (q *oracleQueue) Waiting(nodeID int, now float64) float64 {
	s := q.lookup(nodeID)
	if s == nil {
		return -1
	}
	q.advance(now)
	return s.waiting(q.now)
}

// Waitings returns the waiting time of every tracked server at instant now,
// in unspecified order. Intended for tests and introspection.
func (q *oracleQueue) Waitings(now float64) []float64 {
	q.advance(now)
	out := make([]float64, 0, q.count)
	for _, s := range q.servers {
		if s != nil {
			out = append(out, s.waiting(q.now))
		}
	}
	return out
}

// oracleHeap is an indexed binary heap of servers ordered by key() with
// nodeID tie-breaking for determinism. Like internal/eventq's event heap it
// is hand-rolled rather than built on container/heap: the heap sits on
// oracleQueue.Assign's hot path, and container/heap both moves elements
// through interface{} and pays an indirect call per comparison and swap.
// Only the root is ever observed (best/advance), and (key, nodeID) is a
// strict total order over members, so any valid heap arrangement yields
// identical scheduling decisions.
type oracleHeap struct {
	items []*oracleServer
}

func (h *oracleHeap) len() int            { return len(h.items) }
func (h *oracleHeap) peek() *oracleServer { return h.items[0] }

func (h *oracleHeap) less(i, j int) bool {
	ki, kj := h.items[i].key(), h.items[j].key()
	if ki != kj {
		return ki < kj
	}
	return h.items[i].nodeID < h.items[j].nodeID
}

func (h *oracleHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = i
	h.items[j].heapIdx = j
}

func (h *oracleHeap) push(s *oracleServer) {
	s.heapIdx = len(h.items)
	h.items = append(h.items, s)
	h.siftUp(s.heapIdx)
}

func (h *oracleHeap) remove(s *oracleServer) {
	i := s.heapIdx
	n := len(h.items) - 1
	if i != n {
		h.swap(i, n)
	}
	h.items[n] = nil // drop the reference so a departed server can be collected
	h.items = h.items[:n]
	if i != n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
}

// fix restores heap order around position s after s's key changed in place.
func (h *oracleHeap) fix(s *oracleServer) {
	if !h.siftDown(s.heapIdx) {
		h.siftUp(s.heapIdx)
	}
}

// heapify establishes heap order over items filled in arbitrary order (the
// classic bottom-up build): O(n) total, versus O(n log n) for pushing one by
// one. SyncFrom uses it to rebuild a mirrored queue in one pass.
func (h *oracleHeap) heapify() {
	for i, s := range h.items {
		s.heapIdx = i
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *oracleHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether it moved the element, mirroring container/heap's
// down so fix and remove sift up only when no downward motion occurred.
func (h *oracleHeap) siftDown(i int) bool {
	start := i
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		j := left
		if right := left + 1; right < n && h.less(right, left) {
			j = right
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > start
}
