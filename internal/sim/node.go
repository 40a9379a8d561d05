package sim

// entryFlags packs the two properties the hot paths read per queue entry:
// what the entry is (probe vs centrally placed task) and whether it belongs
// to a long job. The long bit is cached at entry creation — a job's
// classification never changes after submission — so the stealing policy's
// queue scans (appendQueueLongFlags, the Figure-3 eligible-group rule) read
// the queue linearly with no pointer chasing: at 12k+ nodes the steal scan
// previously took a cache miss per queued entry dereferencing job state.
type entryFlags uint8

const (
	// entryTask marks a concrete task placed directly by the centralized
	// scheduler (§3.7), carrying its actual duration. Entries without it
	// are batch-sampling probes: when a probe reaches the head of the
	// queue the node asks the job's scheduler for a task and receives
	// either a task or a cancel (§3.5).
	entryTask entryFlags = 1 << iota
	// entryLong marks entries belonging to long jobs, the property the
	// stealing policy classifies queue contents by.
	entryLong
	// entrySpec marks a speculative duplicate (fault plane only; see
	// faults.go), the one task sent straight to a node without central-
	// queue bookkeeping: its execution is gated on the original not having
	// won the race yet.
	entrySpec
)

// longFlag converts a job's classification into its entry flag bit.
func longFlag(long bool) entryFlags {
	if long {
		return entryLong
	}
	return 0
}

// entry is one element of a node's FIFO queue: 12 pointer-free bytes (two
// int32 indices, the packed flags and the placing scheduler). Queue scans
// and steals copy entries around, so the size and pointer-freeness both
// matter.
// A task's duration is not stored: tidx indexes the owning job's duration
// slice, which also identifies the exact task to re-assign if the node
// holding this entry fails. No simulation path reads when an entry arrived;
// a test that wants queue waits installs the arrived/started hooks.
// TestHotStructSizes pins both.
type entry struct {
	jidx int32 // index into simulation.jobs
	// tidx is a task entry's task index within the job. Probe paths branch
	// on flags and never read it: it is -1 for probes unless an arrived
	// hook has stamped its own number there.
	tidx  int32
	flags entryFlags
	// sched is the scheduler that placed a task entry (multi-scheduler
	// model): the node reports the task's start and completion back to that
	// scheduler's local queue. Always 0 on a single-scheduler run.
	sched uint8
}

// long reports whether this entry belongs to a long job.
//
//hawk:hotpath
func (e entry) long() bool { return e.flags&entryLong != 0 }

// node models one worker: a single execution slot plus a FIFO queue (§3.1).
// Nodes live in the simulation's dense []node arena (index = node id), so a
// 170k-node cluster is one allocation of sequentially laid-out state, not
// 170k heap objects; methods take the owning simulation explicitly.
//
// A queue of one entry lives inside the node, in front; a longer one lives
// in rest[head:], and the two never hold entries at once. Most queues hold
// at most one entry, so most enqueues, pops and victim checks touch the
// node's own 64 bytes — one cache line, pinned by TestHotStructSizes — and
// never the backing array rest points at. A queue that grows past one entry
// moves front into rest, so popping a longer queue reads each entry from
// rest once, where it was written, and never copies it into the node.
type node struct {
	front entry
	// rest[head:] is the queue when it is not front. Popping advances head
	// instead of reslicing from the front, and rest is rewound to its start
	// whenever it drains — so the backing array's capacity is reused for
	// the node's lifetime and steady-state enqueues never allocate.
	// (Reslicing rest[1:] looks free but strands the popped prefix: the
	// array can never be re-used from the front again, forcing a fresh
	// allocation each time the window slides past the capacity.)
	rest     []entry
	head     int32
	id       int32
	hasFront bool // the queue is front alone; rest holds nothing
	// busy is true while the slot is occupied: executing a task or
	// holding the request/response round-trip of a probe at the head of
	// the queue.
	busy bool
	// runningLong is valid while busy: whether the occupying work
	// belongs to a long job. The stealing policy's Figure 3 cases branch
	// on it.
	runningLong bool
	// The fields above fill 56 bytes; the padding keeps a node one whole
	// cache line, so a page-aligned arena never splits one across two.
	_ [8]byte
}

// queueLen returns the number of live queued entries.
//
//hawk:hotpath
func (n *node) queueLen() int {
	if n.hasFront {
		return 1
	}
	return len(n.rest) - int(n.head)
}

// enqueue appends an entry and starts it immediately if the node is idle.
//
//hawk:hotpath
func (n *node) enqueue(s *simulation, e entry) {
	switch {
	case n.hasFront:
		n.rest = append(n.rest, n.front, e)
		n.hasFront = false
	case len(n.rest) == 0:
		n.front, n.hasFront = e, true
	default:
		if n.head > 0 && len(n.rest) == cap(n.rest) {
			// About to grow: compact live entries to the front first, so
			// the stranded [0:head) prefix is not copied into (and retained
			// by) a larger array. This keeps a queue that never fully
			// drains — a node under sustained overload — at memory
			// proportional to its peak depth rather than its total
			// throughput.
			live := copy(n.rest, n.rest[n.head:])
			n.rest = n.rest[:live]
			n.head = 0
		}
		n.rest = append(n.rest, e)
	}
	n.advance(s)
}

// enqueueFront hands a stolen group to the thief, in order. A node steals
// only once it has run dry — finishSlot after an advance that found nothing,
// recoverNode on a node failNode emptied — so the group becomes the queue,
// in the backing array the node already owns; es is the caller's scratch
// buffer and is copied from, never retained.
//
//hawk:hotpath
func (n *node) enqueueFront(s *simulation, es []entry) {
	if n.queueLen() != 0 {
		panic("sim: steal by a node with a non-empty queue")
	}
	if len(es) == 1 {
		n.front, n.hasFront = es[0], true
	} else {
		n.rest = append(n.rest[:0], es...)
		n.head = 0
	}
	n.advance(s)
}

// pop removes and returns the queue's first entry; the queue must not be
// empty.
//
//hawk:hotpath
func (n *node) pop() entry {
	if n.hasFront {
		n.hasFront = false
		return n.front
	}
	e := n.rest[n.head]
	n.head++
	n.rewind()
	return e
}

// rewind restarts rest at its backing array's top once it has drained, so
// the array is reusable from the top.
//
//hawk:hotpath
func (n *node) rewind() {
	if int(n.head) == len(n.rest) {
		n.rest, n.head = n.rest[:0], 0
	}
}

// clearQueue empties the queue, keeping rest's backing array.
func (n *node) clearQueue() {
	n.rest, n.head, n.hasFront = n.rest[:0], 0, false
}

// advance starts the head-of-queue entry if the slot is free.
//
//hawk:hotpath
func (n *node) advance(s *simulation) {
	if n.busy || n.queueLen() == 0 {
		return
	}
	head := n.pop()
	n.busy = true
	n.runningLong = head.long()
	s.nodeBecameBusy(n.id)
	if s.started != nil {
		s.started(head, s.eng.Now())
	}
	if head.flags&entryTask != 0 {
		dur := s.jobs[head.jidx].durations[head.tidx]
		if s.speeds != nil {
			dur /= s.speeds[n.id]
		}
		if head.flags&entrySpec != 0 {
			// Speculative duplicate: no central queue observed this
			// placement, so there is no start/finish feedback to publish.
			if !s.specBegin(n, head.jidx, head.tidx) {
				// The duplicate is obsolete (its original already won);
				// discard the entry and free the slot.
				n.finishSlot(s)
				return
			}
			n.execute(s, head.jidx, head.tidx, 0, dur, evfSpec)
			return
		}
		// Centrally placed task: the central queue observes its start so
		// waiting times track the server's actual queue state (§3.7).
		// The estimate leaves the queued sum; the running term uses the
		// task's actual duration as executed on this node (speed-scaled
		// on a heterogeneous cluster) — this is what keeps a server with
		// an overrunning task from looking idle to the centralized
		// scheduler.
		s.central.TaskStarted(int(n.id), s.eng.Now(), s.jobs[head.jidx].estimate, dur)
		if s.ms != nil {
			// The placing scheduler's local mirror observes its own task's
			// start too, so its view of this server stays as fresh as its
			// own placements allow between snapshot refreshes.
			s.ms.mirrorTaskStarted(head.sched, int(n.id), s.eng.Now(), s.jobs[head.jidx].estimate, dur)
		}
		n.execute(s, head.jidx, head.tidx, head.sched, dur, evfCentral)
		return
	}
	// Probe: request/response round trip to the job's scheduler — the node
	// asks for a task; the scheduler answers with a task or cancel (the
	// evProbeReply event, handled by probeReply). On a dynamic cluster the
	// reply is stamped with the node's incarnation so a reply out-racing a
	// failure is recognizably stale.
	var gen uint8
	if s.dyn != nil {
		gen = s.dyn.epoch[n.id]
		s.dyn.run[n.id] = runRef{jidx: head.jidx, task: -1, probeWait: true}
	}
	s.sendReply(n.id, gen, head.jidx, 0)
}

// probeReply handles the scheduler's answer to this node's task request:
// either the job's next unassigned task, or a cancel because other probes
// drained the job first (§3.5).
//
//hawk:hotpath
func (n *node) probeReply(s *simulation, jidx int32) {
	js := &s.jobs[jidx]
	js.probes--
	tidx, ok := js.nextTask()
	if !ok {
		s.res.Cancels++
		// A cancel can be the job's last outstanding reference: if its
		// tasks all finished elsewhere first, the slot frees here.
		s.maybeFreeJob(jidx)
		n.finishSlot(s)
		return
	}
	dur := js.durations[tidx]
	if s.speeds != nil {
		dur /= s.speeds[n.id]
	}
	n.execute(s, jidx, tidx, 0, dur, 0)
}

// execute runs task tidx of job jidx to completion; dur is the task's wall
// duration on this node (the caller has already applied the node's speed
// factor; any straggler slowdown applies here). eflags carries evfCentral
// for tasks placed by the centralized scheduler, whose completion it
// observes, and evfSpec for speculative duplicates; sched is the placing
// scheduler in the multi-scheduler model. On a dynamic cluster the
// completion event carries the node's incarnation and the running task is
// recorded so a failure can re-route it.
//
//hawk:hotpath
func (n *node) execute(s *simulation, jidx, tidx int32, sched uint8, dur float64, eflags uint8) {
	s.res.TasksExecuted++
	var gen uint8
	if s.dyn != nil {
		gen = s.dyn.epoch[n.id]
		s.dyn.run[n.id] = runRef{
			jidx: jidx, task: tidx, start: s.eng.Now(),
			central: eflags&evfCentral != 0, spec: eflags&evfSpec != 0,
		}
	}
	if s.flt != nil {
		// Rounded before both sums below: fused into one of them, fin could
		// miss the instant the completion fires by an ulp, and the exact
		// comparison in evTaskDone would re-arm it (see the randdist package
		// comment).
		dur = float64(dur * s.flt.slow[n.id])
		s.flt.fin[n.id] = s.eng.Now() + dur
	}
	s.eng.After(dur, simEvent{kind: evTaskDone, flags: eflags, gen: gen, sched: sched, ref: n.id, jidx: jidx, aux: tidx})
	if s.flt != nil && s.flt.spec.Speculate && eflags == 0 {
		// Plain probe-path task: arm the duplicate-launch timer (after the
		// completion, so an exact tie resolves to the completion). The job
		// slot stays referenced until the timer resolves.
		s.jobs[jidx].probes++
		s.eng.After(s.jobs[jidx].specThresh, simEvent{kind: evSpecLaunch, gen: gen, ref: n.id, jidx: jidx, aux: tidx})
	}
}

// taskDone accounts a completed task and frees the slot. A job completes
// only after all its tasks (§3.1).
//
//hawk:hotpath
func (n *node) taskDone(s *simulation, jidx, tidx int32, flags uint8, sched uint8, now float64) {
	if flags&evfCentral != 0 {
		s.central.TaskFinished(int(n.id), now)
		if s.ms != nil {
			s.ms.mirrorTaskFinished(sched, int(n.id), now)
		}
	} else if s.flt != nil && s.flt.spec.Speculate {
		s.specResolve(jidx, tidx, flags&evfSpec != 0)
	}
	js := &s.jobs[jidx]
	js.finished++
	if int(js.finished) == len(js.durations) {
		s.jobCompleted(jidx, now)
	}
	n.finishSlot(s)
}

// finishSlot releases the slot, continues with the queue, and — if the node
// ran dry — performs one randomized steal attempt (§3.6).
//
//hawk:hotpath
func (n *node) finishSlot(s *simulation) {
	n.busy = false
	s.nodeBecameIdle(n.id)
	n.advance(s)
	if !n.busy && n.queueLen() == 0 {
		s.attemptSteal(n)
	}
}

// appendQueueLongFlags appends, head-first, which queued entries belong to
// long jobs onto buf and returns it, for the eligible-group computation.
// The long bit is read straight from the packed entry flags — front, or one
// linear scan of rest, no job-state dereference per entry. Callers pass a
// reused scratch buffer (see simulation.stealFlags).
//
//hawk:hotpath
func (n *node) appendQueueLongFlags(buf []bool) []bool {
	if n.hasFront {
		buf = append(buf, n.front.long())
		return buf
	}
	for _, e := range n.rest[n.head:] {
		buf = append(buf, e.long())
	}
	return buf
}

// appendStealRange removes queue entries [start, end), appends them to buf,
// and returns it. Callers pass a reused scratch buffer (see
// simulation.stolen); the entries are copied into the thief's queue before
// the buffer's next use.
// Indices are relative to the live queue (head-first), matching the flags
// appendQueueLongFlags reports.
//
//hawk:hotpath
func (n *node) appendStealRange(buf []entry, start, end int) []entry {
	if n.hasFront {
		if start == end {
			return buf
		}
		n.hasFront = false
		buf = append(buf, n.front)
		return buf
	}
	live := n.rest[n.head:]
	buf = append(buf, live[start:end]...)
	n.rest = append(n.rest[:int(n.head)+start], live[end:]...)
	n.rewind()
	return buf
}

// appendStealIndices removes the entries at the given sorted queue indices
// (the random-position stealing ablation), appending them to buf.
//
//hawk:hotpath
func (n *node) appendStealIndices(buf []entry, idx []int) []entry {
	if len(idx) == 0 {
		return buf
	}
	if n.hasFront {
		n.hasFront = false
		buf = append(buf, n.front)
		return buf
	}
	live := n.rest[n.head:]
	kept := live[:0]
	next := 0
	for i, e := range live {
		if next < len(idx) && i == idx[next] {
			buf = append(buf, e)
			next++
			continue
		}
		kept = append(kept, e)
	}
	n.rest = n.rest[:int(n.head)+len(kept)]
	n.rewind()
	return buf
}
