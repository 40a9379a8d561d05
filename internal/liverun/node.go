package liverun

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/randdist"
)

// entry is one element of a live node's FIFO queue: a batch-sampling
// probe, a centrally placed task, or a speculative duplicate. Parked work
// on the cluster's waitlist is an entry too: a job, one task, or a node's
// probe round trip.
type entry struct {
	probe bool
	job   *jobRuntime
	dur   time.Duration // task entries only
	// handle is the job's task-instance identity for task entries:
	// completion dedup under speculation and re-serve bookkeeping. A whole
	// job parked under WaitCentral has -1.
	handle int
	// ready is closed to release a probe round trip parked under
	// WaitSchedReply (cluster.ownerAnswers). Unused otherwise.
	ready chan struct{}
	// spec marks a speculative duplicate (fault plane): it executes without
	// central bookkeeping and resolves win-or-wasted against the job's
	// completion bitmap.
	spec bool
	// sched is the scheduler that placed a task entry in the
	// multi-scheduler model: the node reports start/finish feedback to its
	// mirror as well as to the shared queue. Unused otherwise.
	sched int32
}

func (e entry) long() bool { return e.job.long }

// nodeMonitor is the live analogue of a Sparrow node monitor, extended per
// §3.8 so monitors can communicate and send tasks to each other (work
// stealing). One goroutine per node: a single execution slot plus a
// mutex-protected FIFO queue that peers may steal from. Under a churn
// scenario the monitor can go down (queue dropped, running task killed and
// re-routed) and come back up; on a heterogeneous cluster its speed factor
// stretches every task it executes.
type nodeMonitor struct {
	id    int
	c     *cluster
	src   *randdist.Source // owned by the node's goroutine and thieves; guarded by mu
	speed float64          // fixed per run; 1 on a homogeneous cluster

	mu            sync.Mutex
	queue         []entry
	busy          bool
	alive         bool
	executingLong bool
	wake          chan struct{} // capacity 1: "new work arrived" / "recovered"
	kill          chan struct{} // closed on failure; replaced on recovery
	slow          float64       // straggler factor (>= 1); 1 = nominal speed
	slowCh        chan struct{} // closed and replaced on each factor change
}

func newNodeMonitor(id int, c *cluster, src *randdist.Source) *nodeMonitor {
	return &nodeMonitor{
		id: id, c: c, src: src, speed: 1, alive: true,
		wake:   make(chan struct{}, 1),
		kill:   make(chan struct{}),
		slow:   1,
		slowCh: make(chan struct{}),
	}
}

// setSlow applies a scripted straggler factor; closing slowCh re-times any
// in-flight sleep at the new factor (sleepTask).
func (n *nodeMonitor) setSlow(factor float64) {
	n.mu.Lock()
	n.slow = factor
	close(n.slowCh)
	n.slowCh = make(chan struct{})
	n.mu.Unlock()
}

// run is the node's main loop: drain the queue; when it runs dry, attempt
// one randomized steal; otherwise sleep until new work arrives. A dead
// node parks until recovery wakes it.
func (n *nodeMonitor) run() {
	for {
		if !n.isAlive() {
			select {
			case <-n.wake:
				continue
			case <-n.c.stop:
				return
			}
		}
		e, ok := n.pop()
		if !ok {
			if n.trySteal() {
				continue
			}
			select {
			case <-n.wake:
				continue
			case <-n.c.stop:
				return
			}
		}
		n.process(e)
	}
}

func (n *nodeMonitor) isAlive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// goDown takes the node out of the cluster: marks it dead, closes the kill
// channel (interrupting a running task's sleep), and hands the dropped
// queue back for re-routing.
func (n *nodeMonitor) goDown() []entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil
	}
	n.alive = false
	close(n.kill)
	// Straggler state dies with the node (matching the simulator): a later
	// recovery returns it at nominal speed unless a straggle event re-slows
	// it while down.
	n.slow = 1
	dropped := n.queue
	n.queue = nil
	return dropped
}

// comeUp returns the node to service, idle and empty, with a fresh kill
// channel, and wakes its loop.
func (n *nodeMonitor) comeUp() {
	n.mu.Lock()
	if n.alive {
		n.mu.Unlock()
		return
	}
	n.alive = true
	n.kill = make(chan struct{})
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// pop takes the queue head, marking the node busy while it holds work.
func (n *nodeMonitor) pop() (entry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || len(n.queue) == 0 {
		n.busy = false
		return entry{}, false
	}
	e := n.queue[0]
	n.queue = n.queue[1:]
	n.busy = true
	n.executingLong = e.long()
	return e, true
}

// process resolves a probe (request round trip, then run or cancel), runs
// a speculative duplicate (win-or-wasted against the job's bitmap), or
// runs a centrally placed task, reporting start/finish feedback. If the
// node is killed mid-execution the task is lost: its elapsed time is
// counted as lost work and the task re-routes (back to the job for a fresh
// probe, or to the central scheduler).
func (n *nodeMonitor) process(e entry) {
	c := n.c
	if e.spec {
		if !n.isAlive() || e.job.isCompleted(e.handle) {
			// The original finished first, or the duplicate surfaced on a
			// dead node: wasted without executing. The original's own chain
			// serves the task either way.
			c.count(&c.res.SpeculativeWasted, 1)
			return
		}
		if n.sleepTask(e.dur) {
			if e.job.taskDone(e.handle) {
				c.count(&c.res.SpeculativeWins, 1)
			} else {
				c.count(&c.res.SpeculativeWasted, 1)
			}
			return
		}
		// Killed mid-run: the duplicate dies wasted; no re-route.
		c.count(&c.res.SpeculativeWasted, 1)
		return
	}
	if e.probe {
		c.latency() // request
		if c.mscheds != nil && !c.ownerAnswers(n, e.job) {
			// Killed while the request waited for a live scheduler: re-probe
			// elsewhere, as a failure re-routes any probe in its round trip.
			c.count(&c.res.ProbesLost, 1)
			c.resendProbe(e.job)
			return
		}
		dur, handle, ok := e.job.getTask()
		if f := c.faults; f != nil {
			// The task-request round trip rides the lossy plane too.
			c.lossySend(f.spec.ReplyLoss, &c.res.MessagesDropped.Replies, &c.res.ProbeRetries)
		}
		c.latency() // response
		if !ok {
			c.count(&c.res.Cancels, 1)
			return
		}
		if !n.isAlive() {
			// Died during the round trip: the handed-out task never
			// started; give it back and re-probe elsewhere.
			e.job.pushLost(dur, handle)
			c.count(&c.res.ProbesLost, 1)
			c.resendProbe(e.job)
			return
		}
		if f := c.faults; f != nil && f.spec.Speculate {
			c.armSpeculation(e.job, dur, handle, n.id)
		}
		if n.sleepTask(dur) {
			// A false return means the duplicate won the race; the job was
			// already credited.
			e.job.taskDone(handle)
			return
		}
		// Killed mid-run: re-execute from scratch via a fresh probe.
		c.count(&c.res.TasksReexecuted, 1)
		e.job.pushLost(dur, handle)
		c.resendProbe(e.job)
		return
	}
	if !n.isAlive() {
		c.central.placeTask(e.job, e.dur, e.handle)
		return
	}
	if c.central != nil {
		c.central.taskStarted(n.id, e.job.est, n.scaled(e.dur))
		if c.mscheds != nil {
			c.mirrorStarted(e.sched, n.id, e.job.est, n.scaled(e.dur))
		}
	}
	if n.sleepTask(e.dur) {
		if c.central != nil {
			c.central.taskFinished(n.id)
			if c.mscheds != nil {
				c.mirrorFinished(e.sched, n.id)
			}
		}
		e.job.taskDone(e.handle)
		return
	}
	// Killed mid-run: the central queue already dropped this server; the
	// task re-assigns to a live one.
	c.count(&c.res.TasksReexecuted, 1)
	c.central.placeTask(e.job, e.dur, e.handle)
}

// scaled stretches a task duration by the node's speed factor.
func (n *nodeMonitor) scaled(d time.Duration) time.Duration {
	if n.speed == 1 {
		return d
	}
	return time.Duration(float64(d) / n.speed)
}

// sleepTask executes one task for its (speed-scaled) duration. It returns
// false when the node was killed before completion, accounting the elapsed
// time as lost work (the caller decides whether the task re-executes — a
// speculative duplicate does not). A straggle broadcast mid-sleep re-times
// the remaining work at the node's new factor; unlike the simulator, a
// recovery (factor back to 1) speeds up the remaining work too — the live
// sleep is genuinely re-timed, not pinned to its committed finish.
func (n *nodeMonitor) sleepTask(d time.Duration) bool {
	d = n.scaled(d)
	n.mu.Lock()
	kill := n.kill
	alive := n.alive
	n.mu.Unlock()
	if !alive {
		// Failed between dequeue and launch: nothing executed yet.
		return false
	}
	n.c.count(&n.c.res.TasksExecuted, 1)
	began := time.Now()
	remaining := d // straggle-free work left
	for remaining > 0 {
		n.mu.Lock()
		factor := n.slow
		slowCh := n.slowCh
		n.mu.Unlock()
		t := time.NewTimer(time.Duration(float64(remaining) * factor))
		start := time.Now()
		select {
		case <-t.C:
			return true
		case <-slowCh:
			t.Stop()
			// Work consumed so far at the factor that was in force; the
			// loop re-sleeps the remainder at the new factor.
			remaining -= time.Duration(float64(time.Since(start)) / factor)
		case <-kill:
			t.Stop()
			n.c.countTime(&n.c.res.WorkLostSeconds, time.Since(began))
			return false
		}
	}
	return true
}

// enqueue appends work and wakes the node if it is parked. Work landing on
// a dead node (a message already in flight when the node failed) is
// re-routed instead, as the sender would on noticing the failure.
func (n *nodeMonitor) enqueue(e entry) {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		n.c.rerouteEntry(e)
		return
	}
	n.queue = append(n.queue, e)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// trySteal performs one randomized steal attempt (§3.6): contact up to Cap
// random live general-partition nodes, take the first eligible group
// found, and push it onto our own (empty) queue.
func (n *nodeMonitor) trySteal() bool {
	c := n.c
	if !c.steal.Enabled {
		return false
	}
	n.mu.Lock()
	c.mu.Lock()
	candidates := c.steal.CandidatesInto(nil, c.view, n.src, n.id)
	c.mu.Unlock()
	n.mu.Unlock()
	if len(candidates) == 0 {
		return false
	}
	c.count(&c.res.StealAttempts, 1)
	for _, id := range candidates {
		c.count(&c.res.StealContacts, 1)
		if f := c.faults; f != nil && f.drop(f.spec.StealLoss) {
			c.count(&c.res.MessagesDropped.Steals, 1)
			// The contact was lost; stealing is opportunistic, so the
			// thief simply moves on to its next candidate victim.
			continue
		}
		c.latency() // contacting the victim costs a message
		group := c.nodes[id].stealGroup()
		if len(group) == 0 {
			continue
		}
		c.latency() // shipping the stolen group back
		n.mu.Lock()
		if !n.alive {
			// The thief failed during the contact round trip; its queue
			// was already drained and nothing will serve it. Re-route the
			// stolen work as if it had landed on the dead node.
			n.mu.Unlock()
			for _, e := range group {
				c.rerouteEntry(e)
			}
			return false
		}
		n.queue = append(append(make([]entry, 0, len(group)+len(n.queue)), group...), n.queue...)
		n.mu.Unlock()
		c.count(&c.res.StealSuccesses, 1)
		c.count(&c.res.EntriesStolen, int64(len(group)))
		return true
	}
	return false
}

// stealGroup extracts this node's eligible group (Figure 3) for a thief, or
// nil when there is nothing to steal.
func (n *nodeMonitor) stealGroup() []entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || !n.busy || len(n.queue) == 0 {
		return nil
	}
	flags := make([]bool, len(n.queue))
	for i, e := range n.queue {
		flags[i] = e.long()
	}
	start, end, ok := core.EligibleGroup(n.executingLong, flags)
	if !ok {
		return nil
	}
	group := append([]entry(nil), n.queue[start:end]...)
	n.queue = append(n.queue[:start], n.queue[end:]...)
	return group
}
