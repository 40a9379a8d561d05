package sim

// Scripted cluster-churn handling: node failures and recoveries, central
// scheduler outages, and the re-routing of work lost with a failed node.
// Everything in this file is off the hot path — it runs only when a
// scenario event fires (or when an in-flight message lands on a node that
// failed after it was sent), so clarity wins over allocation discipline;
// the churn-free fast path never enters here (simulation.dyn == nil).

import "repro/internal/policy"

// dynState is the per-node dynamic-cluster bookkeeping, allocated only
// when the scenario scripts membership transitions or injects faults.
type dynState struct {
	// epoch counts a node's incarnations: bumped on every failure, so an
	// evProbeReply/evTaskDone stamped with an older epoch is recognizably
	// stale (its work was re-routed when the node failed). Events cannot
	// outlive 256 incarnations of a node: an event's flight time is one
	// task duration or network round trip, and each incarnation requires
	// a scripted failure inside that window.
	epoch []uint8
	// run describes what a busy node is doing, so a failure knows exactly
	// which work to re-route; valid only while the node is busy.
	run []runRef
}

func newDynState(slots int) *dynState {
	return &dynState{epoch: make([]uint8, slots), run: make([]runRef, slots)}
}

// runRef identifies the work occupying a node's slot. A negative jidx
// marks a cancelled speculation loser: the slot is held until the
// cancellation message lands, but there is no work to re-route.
type runRef struct {
	jidx    int32 // job arena index; -1 for a cancelled zombie slot
	task    int32 // executing task index; -1 while awaiting a probe reply
	start   float64
	central bool // task was placed by the centralized scheduler
	// spec marks a speculative duplicate (fault plane): a failure resolves
	// it against its specDup record instead of re-serving the task.
	spec bool
	// probeWait marks the probe request/response round trip: the slot is
	// held but no task has been handed out yet.
	probeWait bool
}

// failRandomNodes applies a count-based ChurnFail: count live nodes picked
// uniformly by the churn stream.
func (s *simulation) failRandomNodes(now float64, count int) {
	s.churnIDs = s.view.SampleAllInto(s.churnIDs[:0], s.churnSrc, count)
	for _, id := range s.churnIDs {
		s.failNode(int32(id), now)
	}
}

// recoverRandomNodes applies a count-based ChurnRecover: count dead nodes
// picked uniformly by the churn stream.
func (s *simulation) recoverRandomNodes(now float64, count int) {
	s.deadIDs = s.view.AppendDead(s.deadIDs[:0])
	if count > len(s.deadIDs) {
		count = len(s.deadIDs)
	}
	if count == 0 {
		return
	}
	s.churnIDs = s.churnSrc.SampleWithoutReplacementInto(s.churnIDs[:0], len(s.deadIDs), count)
	for _, i := range s.churnIDs {
		s.recoverNode(int32(s.deadIDs[i]), now)
	}
}

// failNode removes one node from the cluster: membership, the central
// queue's server set, and every piece of work the node held. Queued work
// goes back where it came from (reroute); a task that was mid-execution
// re-executes from scratch elsewhere (its elapsed time is lost work).
// Failing a dead node is a no-op.
func (s *simulation) failNode(id int32, now float64) {
	if !s.view.Alive(int(id)) {
		return
	}
	s.view.Fail(int(id))
	s.res.NodeFailures++
	s.dyn.epoch[id]++ // pending replies/completions for this node are now stale
	if s.central != nil {
		s.central.Remove(int(id))
	}
	if s.flt != nil {
		// A node that later recovers comes back at nominal speed; its
		// straggler state dies with it.
		s.flt.slow[id] = 1
		s.flt.fin[id] = 0
	}
	n := &s.nodes[id]
	if n.busy {
		n.busy = false
		n.runningLong = false
		s.nodeBecameIdle(n.id)
		r := s.dyn.run[id]
		switch {
		case r.jidx < 0:
			// A cancelled speculation loser held the slot; nothing to
			// re-route (the in-flight cancellation goes stale with the epoch).
		case r.probeWait:
			// The request/response round trip dies with the node; its probe
			// goes back like a queued one.
			s.reroute(entry{jidx: r.jidx, tidx: -1})
		case r.central:
			s.res.TasksReexecuted++
			s.res.WorkLostSeconds += now - r.start
			s.centralTask(r.jidx, r.task)
		case r.spec:
			// A running speculative duplicate dies. Normally its original
			// keeps running and the duplicate is simply wasted; if the
			// original died first (the duplicate had taken over), the task
			// re-serves, inheriting the duplicate's job reference.
			s.res.WorkLostSeconds += now - r.start
			js := &s.jobs[r.jidx]
			if i := s.flt.findDup(r.jidx, r.task); i >= 0 {
				s.flt.removeDup(i)
				s.res.SpeculativeWasted++
				js.probes--
				s.maybeFreeJob(r.jidx)
			} else {
				s.res.TasksReexecuted++
				js.lost = append(js.lost, r.task)
				s.resendProbe(r.jidx)
			}
		default:
			s.res.TasksReexecuted++
			s.res.WorkLostSeconds += now - r.start
			if s.dupTakesOver(r.jidx, r.task) {
				// A speculative duplicate of this task survives the
				// original; it becomes the task's real execution.
				break
			}
			// A probe-fetched task: hand the task index back to the job
			// and send a fresh probe to carry it. The fresh probe is a new
			// outstanding chain — its consuming reply is still to come —
			// so the job's probe count grows by one.
			js := &s.jobs[r.jidx]
			js.lost = append(js.lost, r.task)
			js.probes++
			s.resendProbe(r.jidx)
		}
	}
	for _, e := range n.queue[n.head:] {
		s.reroute(e)
	}
	n.queue = n.queue[:0]
	n.head = 0
}

// reroute sends a queue entry whose node is dead — failed under it, or
// failed while the entry was in flight toward it — back where it came from:
// a speculative duplicate resolves against its original, a direct task is
// re-sent to a fresh node, a central task returns to the central scheduler,
// and a probe is lost and re-sent.
func (s *simulation) reroute(e entry) {
	switch {
	case e.flags&entrySpec != 0:
		s.specAbandon(e.jidx, e.tidx)
	case e.flags&entryDirect != 0:
		s.directPlace(e.jidx, e.tidx, 0)
	case e.flags&entryTask != 0:
		s.centralTask(e.jidx, e.tidx)
	default:
		s.res.ProbesLost++
		s.resendProbe(e.jidx)
	}
}

// recoverNode returns one node to the cluster, idle with an empty queue,
// and releases the work that waited for capacity. Like any node that runs
// dry, the recovered node immediately attempts one randomized steal.
// Recovering a live node is a no-op.
func (s *simulation) recoverNode(id int32, now float64) {
	if s.view.Alive(int(id)) {
		return
	}
	s.view.Recover(int(id))
	s.res.NodeRecoveries++
	if s.central != nil && s.pol.CentralPool().Contains(s.part, int(id)) {
		s.central.Add(int(id), now)
	}
	s.release(policy.NodeRecovered)
	s.attemptSteal(&s.nodes[id])
}

// resendProbe sends one replacement batch-sampling probe for the job to a
// live node of its decision pool, or waits for one to recover. In the
// multi-scheduler model the re-send needs a live owner to answer the
// eventual task request — with none, it waits for a scheduler recovery — and
// it deliberately samples the truth view, not the owner's snapshot: a re-send
// aimed at a stale member could bounce between dead nodes indefinitely.
func (s *simulation) resendProbe(jidx int32) {
	if s.ms != nil && !s.ensureOwner(jidx) {
		s.park(policy.WaitSchedProbe, waiting{jidx: jidx, tidx: -1})
		return
	}
	js := &s.jobs[jidx]
	dec := s.pol.Route(js.info())
	s.nodeIDs = dec.Pool.SampleInto(s.nodeIDs[:0], s.view, s.src, 1)
	if len(s.nodeIDs) == 0 {
		s.park(policy.WaitLostProbe, waiting{jidx: jidx, tidx: -1})
		return
	}
	s.res.ProbesSent++
	s.sendProbe(jidx, int32(s.nodeIDs[0]), 0)
}

// centralUnavailable reports whether central placement must wait: the
// scheduler is scripted down, or churn has removed its every live server.
// Both compares are no-ops on a static run.
func (s *simulation) centralUnavailable() bool {
	return s.centralDown || s.central.Len() == 0
}

// centralTask places one task with the §3.7 assignment, or makes it wait
// while the scheduler is unavailable. In the multi-scheduler model the
// assignment is the owning scheduler's claim/commit path, re-hashing a dead
// owner first and waiting when no scheduler is live.
//
//hawk:hotpath
func (s *simulation) centralTask(jidx, tidx int32) {
	switch {
	case s.centralUnavailable():
		s.park(policy.WaitCentral, waiting{jidx: jidx, tidx: tidx})
	case s.ms == nil:
		nodeID, _ := s.central.Assign(s.eng.Now(), s.jobs[jidx].estimate)
		s.res.CentralAssigns++
		s.sendAssign(int32(nodeID), jidx, tidx, 0, false, 0)
	case s.ensureOwner(jidx):
		s.placeCentral(jidx, tidx, 0)
	default:
		s.park(policy.WaitSchedTask, waiting{jidx: jidx, tidx: tidx})
	}
}

// centralOutageStart begins a scripted central-scheduler outage.
func (s *simulation) centralOutageStart(now float64) {
	if s.centralDown {
		return
	}
	s.centralDown = true
	s.centralDownSince = now
}

// centralOutageEnd closes a scripted outage, accounts its duration, and
// releases the placements that waited for it.
func (s *simulation) centralOutageEnd(now float64) {
	if !s.centralDown {
		return
	}
	s.centralDown = false
	s.res.CentralOutageSeconds += now - s.centralDownSince
	s.release(policy.CentralRestored)
}
