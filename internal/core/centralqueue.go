package core

import (
	"math/bits"
	"slices"
)

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
// is achieved with two heaps, a set and a list:
//
//   - the running heap holds servers whose estimated running task extends
//     into the future (runEnd > now), keyed by runEnd + queued. All such
//     waiting times decay at unit rate, so their relative order is
//     time-invariant. A member whose runEnd slips into the past has true
//     waiting = queued >= key - now, so it can only be *under*-estimated
//     while buried in the heap — the root therefore stays the true minimum
//     of the heap once expired roots are migrated out.
//   - the zero set holds the idle servers with nothing queued: waiting time
//     0, the common case on a cluster that is not saturated with long work.
//     It is a bitset over node ids, so its (key, id)-least member — all its
//     keys are 0 — is its lowest set bit.
//   - the idle servers with long work queued (waiting = queued > 0) are in
//     the idle heap, keyed by queued (time-invariant), or in the unordered
//     list, which is where such a server goes first.
//
// When the zero set is non-empty its lowest member is the answer: it
// precedes every other idle server by key, and a settled running root has
// runEnd > now, so waiting > 0. Nothing else is looked at, so nothing else
// needs ordering: a server Assign takes out of the zero set waits in the
// unordered list, and its TaskStarted usually takes it out again before
// anybody asks. Only when the zero set is empty does best push the list into
// the idle heap and compare the two roots' true waiting times. Either way
// assignments are exactly min-waiting at every instant, ties going to the
// lower node id.
//
// The queue settles when somebody looks. Every method that takes now moves
// the clock (advance), but only the two that observe a root — Assign and
// MinWaiting — first run settle, which migrates expired running roots to
// the idle heap until the running root R is unexpired. TaskStarted,
// TaskFinished, AddLoad, Add and Remove re-seat one server by its own
// record, Waiting and Waitings read records, and a snapshot copies whatever
// stands, so none of them migrates anybody else's: a mirror that hears
// only its own tasks between two snapshots (§4.10) pays nothing for the
// expiries the next snapshot is about to replace. The answers are those of a
// queue that migrated on every call. R is the same server either way: the
// unexpired minimum of a superset that contains it. A server X that such a
// queue would hold idle and this one still holds in the running heap has
// (key_R, id_R) < (key_X, id_X) and runEnd_X <= now, hence waiting(R) =
// key_R - now <= key_X - now <= queued_X = waiting(X), a tie falling to R
// by node id — X is not the answer wherever it sits, which is the argument
// above for a server that expires while buried. Every idle member with a
// larger (queued, id) than X loses to R the same way, so the idle root's
// absence changes nothing, and a mirror copied from an unsettled truth
// finishes the migration with its own settle. Such an X has waiting(X) >=
// waiting(R) > 0, so it is never a server an eager queue would hold in the
// zero set either. (In floats as on paper,
// unless now - runEnd_X and key_X - key_R are both within rounding of zero
// at the instant of an Assign; the eager queue kept as the test oracle has
// the same caveat for buried servers.)
//
// Layout: the whole queue is five pointer-free arrays — one server record
// per node id, the two heaps' slots, each slot carrying its ordering key
// inline, the unordered list's node ids and the zero set's words — so a
// comparison reads two adjacent 16-byte slots instead of chasing two
// pointers, the garbage collector never scans the queue, and a queue is
// copied by copying the arrays.
//
// Snapshots are lazy (Snapshot): a mirror records which state of its source
// it must show, and copies the arrays only when it is first read. Until
// then the source logs each server's record before changing it, and the
// mirror holds its own mutating calls; materializing copies the source as
// it stands, rewinds the logged servers to their records at the snapshot,
// and replays the held calls. Most snapshots of a multi-scheduler run are
// replaced by the next before anybody reads them, and cost neither the
// copy nor the calls.
type CentralQueue struct {
	now float64
	// servers is indexed by node id; at == atNone marks a node the queue
	// does not track. Node ids are dense per partition, so a slice lookup
	// replaces the obvious map.
	servers   []server
	count     int        // tracked servers
	running   serverHeap // key: runEnd + queued
	idle      serverHeap // key: queued, > 0
	unordered []int32    // idle with queued > 0, not in the idle heap yet
	zero      zeroSet    // idle with queued == 0

	// The source side of lazy snapshots: while readers is non-empty, every
	// change to a server's record or structure first appends the record as
	// it stood to log, whose first entry is at position logBase.
	readers []*CentralQueue
	log     []change
	logBase int

	// The mirror side: a queue Snapshot made and nobody has read since
	// mirrors src as of src's log position from (its now and count are the
	// snapshot's already), and holds its own mutating calls in ops.
	src  *CentralQueue
	from int
	ops  []heldOp
}

// server is one node's waiting-time state plus where its slot sits. Its
// size and pointer-freeness are pinned by TestCentralQueueLayout: a
// materialized snapshot copies one per node id.
type server struct {
	runEnd float64 // estimated completion instant of the running long task
	queued float64 // summed estimates of queued long tasks
	pos    int32   // index of the server's slot in its heap or in unordered
	at     uint8   // the structure the server is in: atNone … atZero
	// restored is set while materialize rewinds the record, so each server
	// is rewound once, to its oldest logged record; false otherwise.
	restored bool
}

// Where a server is: the zero value is untracked.
const (
	atNone      uint8 = iota
	atRunning         // the running heap
	atIdle            // the idle heap
	atUnordered       // the unordered list
	atZero            // the zero set
)

// key returns the ordering key for the heap the server occupies. Every
// mutation of runEnd or queued re-seats the server's slot, if it has one,
// with it.
func (s *server) key() float64 {
	if s.at == atRunning {
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
// NewCentralQueue(nil) is an empty queue ready to be a mirror (Snapshot,
// SyncFrom).
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
// reserves room for n members in each heap and the zero set. A server is in
// one structure at a time, so until the id space grows again no push and no
// snapshot of a queue this size reallocates them — a mirror following a
// truth whose running heap fills up over a run would otherwise regrow by
// append's 1.25× on refresh after refresh. The unordered list grows as it
// fills: it holds about the assignments not yet started, far fewer than n,
// and reserving n for it in every mirror cost 0.5–0.7 MB of peak RSS on the
// multisched_stale command.
func (q *CentralQueue) grow(n int) {
	if n <= len(q.servers) {
		return
	}
	q.servers = append(q.servers, make([]server, n-len(q.servers))...)
	q.running = slices.Grow(q.running, n-len(q.running))
	q.idle = slices.Grow(q.idle, n-len(q.idle))
	words := (n + 63) / 64
	q.zero.words = slices.Grow(q.zero.words, words-len(q.zero.words))
	for len(q.zero.words) < words {
		q.zero.words = append(q.zero.words, 0)
	}
}

// Len returns the number of servers tracked.
func (q *CentralQueue) Len() int { return q.count }

// lookup returns the tracked server for nodeID, or nil.
func (q *CentralQueue) lookup(nodeID int) *server {
	if nodeID < 0 || nodeID >= len(q.servers) || q.servers[nodeID].at == atNone {
		return nil
	}
	return &q.servers[nodeID]
}

// advance moves the queue's clock to now; the clock never runs backwards.
//
//hawk:hotpath
func (q *CentralQueue) advance(now float64) {
	if now > q.now {
		q.now = now
	}
}

// settle migrates expired running roots to the idle servers — their tasks
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
		q.note(int(node))
		q.running.remove(q.servers, 0)
		q.place(int(node), false)
	}
}

// place files the tracked server nodeID, which is in no structure, in the
// running heap if running, else by its queued sum: the zero set or the
// unordered list.
//
//hawk:hotpath
func (q *CentralQueue) place(nodeID int, running bool) {
	s := &q.servers[nodeID]
	switch {
	case running:
		s.at = atRunning
		q.running.push(q.servers, slot{key: s.runEnd + s.queued, node: int32(nodeID)})
	case s.queued == 0:
		s.at = atZero
		q.zero.add(nodeID)
	default:
		s.at, s.pos = atUnordered, int32(len(q.unordered))
		q.unordered = append(q.unordered, int32(nodeID))
	}
}

// unplace takes the tracked server nodeID out of the structure it is in.
//
//hawk:hotpath
func (q *CentralQueue) unplace(nodeID int) {
	s := &q.servers[nodeID]
	switch s.at {
	case atRunning:
		q.running.remove(q.servers, int(s.pos))
	case atIdle:
		q.idle.remove(q.servers, int(s.pos))
	case atUnordered:
		last := q.unordered[len(q.unordered)-1]
		q.unordered[s.pos] = last
		q.servers[last].pos = s.pos
		q.unordered = q.unordered[:len(q.unordered)-1]
	case atZero:
		q.zero.remove(nodeID)
	}
}

// reseat moves the tracked server nodeID to where it belongs after its
// queued sum changed: within its heap, or between the zero set and the
// rest. An unordered server with work queued stays where it is.
//
//hawk:hotpath
func (q *CentralQueue) reseat(nodeID int) {
	s := &q.servers[nodeID]
	switch {
	case s.at == atRunning:
		q.running.fix(q.servers, int(s.pos), s.key())
	case s.at == atZero || s.queued == 0:
		q.unplace(nodeID)
		q.place(nodeID, false)
	case s.at == atIdle:
		q.idle.fix(q.servers, int(s.pos), s.queued)
	}
}

// best returns the node with the smallest true waiting time at q.now; the
// queue must track at least one server.
//
//hawk:hotpath
func (q *CentralQueue) best() int {
	if q.zero.n > 0 {
		return q.zero.min()
	}
	for _, node := range q.unordered {
		s := &q.servers[node]
		s.at = atIdle
		q.idle.push(q.servers, slot{key: s.queued, node: node})
	}
	q.unordered = q.unordered[:0]
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
	q.load()
	if q.count == 0 {
		panic("core: Assign on empty CentralQueue")
	}
	q.advance(now)
	q.settle()
	nodeID = q.best()
	q.note(nodeID)
	s := &q.servers[nodeID]
	waiting = s.waiting(q.now)
	s.queued += estDuration
	q.reseat(nodeID)
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
	if q.src != nil {
		q.hold(heldOp{kind: heldAddLoad, node: int32(nodeID), now: now, est: estDuration})
		return
	}
	s := q.lookup(nodeID)
	if s == nil {
		return
	}
	q.note(nodeID)
	q.advance(now)
	s.queued += estDuration
	q.reseat(nodeID)
}

// SyncFrom makes this queue a copy of src: same clock, same tracked
// servers, same per-server waiting state. It is Snapshot followed at once by
// the copy a first read would make, so the two queues share nothing
// afterwards: the form for a mirror read where src cannot be (liverun reads
// its mirrors without the cluster lock that guards the truth). The copy is
// five array copies: nothing in the representation points anywhere, and a
// copy of a heap's slots is the same heap, so there is nothing to rebuild.
// The mirror's decisions match what any other arrangement of the same
// servers would give (see serverHeap). It allocates only when src's id
// space is larger than any this queue has held.
//
//hawk:hotpath
func (q *CentralQueue) SyncFrom(src *CentralQueue) {
	q.Snapshot(src)
	q.load()
}

// Snapshot makes this queue a mirror of src as src stands now — the
// snapshot primitive of the multi-scheduler model (§4.10), how a
// scheduler's mirror is born and how its stale copy catches up — without
// copying anything. It records src's clock, count and change-log position
// and registers as an unread reader of src, which from then on logs each
// server's record before changing it. The mirror's own TaskStarted,
// TaskFinished and AddLoad calls are held, not applied; its first read
// (Assign, MinWaiting, Waiting, Waitings, Add or Remove; Len answers from
// the snapshot's count) materializes it: src's arrays are copied, every
// server src changed since is rewound to its record at the snapshot, and
// the held calls are replayed. A snapshot that the next Snapshot replaces
// before any read costs neither the copy nor the calls. src keeps its log
// within logCap by materializing its oldest reader, so a mirror nobody
// reads again (a failed scheduler's) pins no memory for long, and a mirror
// holds at most heldCap calls.
//
//hawk:hotpath
func (q *CentralQueue) Snapshot(src *CentralQueue) {
	src.load()
	for len(q.readers) > 0 {
		// Mirrors of this queue read it as it stands before the overwrite.
		q.readers[len(q.readers)-1].materialize()
	}
	if q.src != src {
		if q.src != nil {
			q.src.release(q)
		}
		q.src = src
		src.readers = append(src.readers, q)
	}
	q.from = src.logBase + len(src.log)
	q.now, q.count = src.now, src.count
	q.ops = q.ops[:0]
	src.trim()
}

// change is a server's record as it stood before the source changed it: the
// entry of the change log that lets a mirror rewind the server. Size and
// pointer-freeness pinned by TestCentralQueueLayout.
type change struct {
	runEnd float64
	queued float64
	node   int32
	at     uint8
}

// heldOp is a mutating call an unread mirror received, held for replay.
type heldOp struct {
	now, est, run float64
	node          int32
	kind          uint8
}

// The kinds of held call.
const (
	heldStarted uint8 = iota
	heldFinished
	heldAddLoad
)

// hold appends a call to an unread mirror's held calls, materializing the
// mirror (which replays them) once there are heldCap.
//
//hawk:hotpath
func (q *CentralQueue) hold(op heldOp) {
	q.ops = append(q.ops, op)
	if len(q.ops) >= heldCap {
		q.materialize()
	}
}

// load materializes the queue if it is an unread mirror; every read calls
// it first.
//
//hawk:hotpath
func (q *CentralQueue) load() {
	if q.src != nil {
		q.materialize()
	}
}

// note logs nodeID's record before a change to it, if anybody reads the
// log; the server must be tracked or, for Add, in the id space.
//
//hawk:hotpath
func (q *CentralQueue) note(nodeID int) {
	if len(q.readers) > 0 {
		q.record(nodeID)
	}
}

// record appends nodeID's record to the change log and keeps the log within
// logCap. A reader the cap materializes copies this queue's arrays, which
// are consistent here: every caller logs before it changes anything.
//
//hawk:hotpath
func (q *CentralQueue) record(nodeID int) {
	s := &q.servers[nodeID]
	q.log = append(q.log, change{runEnd: s.runEnd, queued: s.queued, node: int32(nodeID), at: s.at})
	if len(q.log) > q.logCap() {
		q.shed()
	}
}

// logCap is the most change-log entries the unread readers may pin: an
// eighth of the id space plus a floor, 2 131 entries (51 KB) at 15 000
// nodes. On the seed-4 multisched_stale command it forces 8 of the 672
// materializations. With a quarter and no heldCap that run's peak RSS was
// about 0.6 MB above the eager copies'; with both caps it is 0.25 MB.
func (q *CentralQueue) logCap() int { return len(q.servers)/8 + 256 }

// heldCap is the most calls an unread mirror holds before it materializes.
// Only a scheduler with tasks in flight that has placed nothing for a while
// gets near it (4 of the 672 materializations on that command).
const heldCap = 256

// shed materializes the oldest unread readers until the entries the rest
// still need fit within logCap, and drops the entries nobody needs.
//
//hawk:hotpath
func (q *CentralQueue) shed() {
	for len(q.readers) > 0 {
		r := q.oldest()
		if q.logBase+len(q.log)-r.from <= q.logCap() {
			q.dropBefore(r.from)
			return
		}
		r.materialize()
	}
}

// oldest returns the unread reader with the earliest log position.
//
//hawk:hotpath
func (q *CentralQueue) oldest() *CentralQueue {
	r := q.readers[0]
	for _, o := range q.readers[1:] {
		if o.from < r.from {
			r = o
		}
	}
	return r
}

// release unregisters reader r and trims the log.
//
//hawk:hotpath
func (q *CentralQueue) release(r *CentralQueue) {
	i := slices.Index(q.readers, r)
	last := len(q.readers) - 1
	q.readers[i] = q.readers[last]
	q.readers[last] = nil
	q.readers = q.readers[:last]
	q.trim()
}

// trim empties the log when nobody reads it, and otherwise drops the entries
// older than every reader's position once they are half the log, so the
// copying stays amortized.
//
//hawk:hotpath
func (q *CentralQueue) trim() {
	if len(q.readers) == 0 {
		q.logBase += len(q.log)
		q.log = q.log[:0]
		return
	}
	if from := q.oldest().from; from-q.logBase > len(q.log)/2 {
		q.dropBefore(from)
	}
}

// dropBefore drops the log entries before position pos.
//
//hawk:hotpath
func (q *CentralQueue) dropBefore(pos int) {
	q.log = q.log[:copy(q.log, q.log[pos-q.logBase:])]
	q.logBase = pos
}

// materialize turns an unread mirror into the queue an eager copy taken at
// the snapshot would be now: it copies src's arrays as they stand, rewinds
// each server src has logged since the snapshot to its oldest logged record
// — taking it out of its structure and filing it by the snapshot's clock —
// and replays the held calls. The answers are exact because they depend
// only on the records and the clock, never on the arrangement (serverHeap):
// a record rewound is the snapshot's record, and filing it running exactly
// when runEnd > now is where the snapshot's queue had it, or would have had
// it after a settle. That is why settle logs the servers it migrates: their
// records do not change, but a mirror reading at an earlier clock must find
// one that was still running at the snapshot in the running heap, not the
// zero set, where best() would wrongly prefer it.
//
//hawk:hotpath
func (q *CentralQueue) materialize() {
	src := q.src
	q.grow(len(src.servers))
	q.servers = append(q.servers[:0], src.servers...)
	q.running = append(q.running[:0], src.running...)
	q.idle = append(q.idle[:0], src.idle...)
	q.unordered = append(q.unordered[:0], src.unordered...)
	q.zero.words = append(q.zero.words[:0], src.zero.words...)
	q.zero.lo, q.zero.n = src.zero.lo, src.zero.n
	window := src.log[q.from-src.logBase:]
	for _, c := range window {
		s := &q.servers[c.node]
		if s.restored {
			continue
		}
		q.unplace(int(c.node))
		*s = server{runEnd: c.runEnd, queued: c.queued, restored: true}
		if c.at != atNone {
			q.place(int(c.node), c.runEnd > q.now)
		}
	}
	for _, c := range window {
		q.servers[c.node].restored = false
	}
	q.src = nil
	src.release(q)
	for _, op := range q.ops {
		switch op.kind {
		case heldStarted:
			q.TaskStarted(int(op.node), op.now, op.est, op.run)
		case heldFinished:
			q.TaskFinished(int(op.node), op.now)
		case heldAddLoad:
			q.AddLoad(int(op.node), op.now, op.est)
		}
	}
	q.ops = q.ops[:0]
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
	if q.src != nil {
		q.hold(heldOp{kind: heldStarted, node: int32(nodeID), now: now, est: estDuration, run: runDuration})
		return
	}
	s := q.lookup(nodeID)
	if s == nil {
		return // node not tracked (e.g. outside the general partition)
	}
	q.note(nodeID)
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
	if q == nil {
		return
	}
	if q.src != nil {
		q.hold(heldOp{kind: heldFinished, node: int32(nodeID), now: now})
		return
	}
	if q.lookup(nodeID) == nil {
		return
	}
	q.note(nodeID)
	q.advance(now)
	q.moveTo(nodeID, false, q.now)
}

// moveTo re-files the tracked server as running or idle with the new
// runEnd.
//
//hawk:hotpath
func (q *CentralQueue) moveTo(nodeID int, running bool, runEnd float64) {
	q.unplace(nodeID)
	q.servers[nodeID].runEnd = runEnd
	q.place(nodeID, running && runEnd > q.now)
}

// Remove stops tracking nodeID — the node left the cluster (failure or
// drain). Estimated work attributed to the server is discarded; the runtime
// re-routes the concrete tasks it knows were queued or running there. It
// reports whether the node was tracked. Rare-path: membership transitions,
// not assignment.
func (q *CentralQueue) Remove(nodeID int) bool {
	q.load()
	s := q.lookup(nodeID)
	if s == nil {
		return false
	}
	q.note(nodeID)
	q.unplace(nodeID)
	s.at = atNone
	q.count--
	return true
}

// Add starts (or resumes) tracking nodeID as an idle server with zero
// waiting time at instant now — the node joined or rejoined the cluster.
// It reports whether the node was newly added (false if already tracked).
// A node id the queue has seen before costs no allocation.
func (q *CentralQueue) Add(nodeID int, now float64) bool {
	q.load()
	if nodeID < 0 || q.lookup(nodeID) != nil {
		return false
	}
	q.advance(now)
	q.grow(nodeID + 1)
	q.note(nodeID)
	q.servers[nodeID] = server{runEnd: q.now}
	q.place(nodeID, false)
	q.count++
	return true
}

// MinWaiting returns the smallest waiting time across servers at instant
// now: the queueing delay the next assigned task would see.
func (q *CentralQueue) MinWaiting(now float64) float64 {
	q.load()
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
	q.load()
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
	q.load()
	q.advance(now)
	out := make([]float64, 0, q.count)
	for i := range q.servers {
		if s := &q.servers[i]; s.at != atNone {
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
// decisions do not depend on the arrangement — which is why a snapshot may
// copy a heap as it stands, and rewind servers in it by taking them out and
// putting them back, and why the sift order is free to differ from
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

// zeroSet is a set of node ids as a bitset: bit id%64 of words[id/64].
// Membership changes are a bit flip; min scans from lo, a word index below
// which no bit is set, and moves lo up past the words it finds empty, so
// the scans of a run cost at most one visit per word per add below lo.
type zeroSet struct {
	words []uint64
	lo    int // no member in words[:lo]
	n     int // members
}

//hawk:hotpath
func (z *zeroSet) add(id int) {
	w := id >> 6
	z.words[w] |= 1 << (id & 63)
	z.n++
	z.lo = min(z.lo, w)
}

//hawk:hotpath
func (z *zeroSet) remove(id int) {
	z.words[id>>6] &^= 1 << (id & 63)
	z.n--
}

// min returns the smallest member; the set must not be empty.
//
//hawk:hotpath
func (z *zeroSet) min() int {
	for z.words[z.lo] == 0 {
		z.lo++
	}
	return z.lo<<6 + bits.TrailingZeros64(z.words[z.lo])
}
