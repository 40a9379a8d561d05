package sim

import (
	"repro/internal/policy"
	"repro/internal/randdist"
)

// The gray-failure injection plane (policy.FaultSpec) and its defenses.
// Everything hangs off simulation.flt, nil unless Config.Faults is set —
// the fault-free fast path pays one pointer compare at each send site and
// draws the exact same main-stream random sequence as before, so golden
// reports stay byte-identical. All fault randomness (loss draws, jitter,
// retry-target and straggler sampling) comes from a dedicated stream seeded
// with Config.Seed+policy.SeedFaults.
//
// Loss is decided omnisciently at send time: a dropped message schedules
// the timeout/retry event that will notice it instead of an arrival, and a
// delivered message schedules no timer at all. Every in-flight or failed
// message is therefore represented by exactly one pending event, which
// keeps the quiescent-queue deadlock detector exact — an all-drop scenario
// exhausts its bounded retry chains, parks, drains the queue, and surfaces
// as the deadlock error rather than ticking forever.

// faultState is the per-run fault-plane bookkeeping.
type faultState struct {
	spec policy.FaultSpec
	src  *randdist.Source // the dedicated Seed+SeedFaults stream
	// drops is the per-class drop accounting the report points at.
	drops policy.MessageDrops
	// slow is the per-node straggler multiplier (1 = nominal speed),
	// applied on top of any static Heterogeneity skew.
	slow []float64
	// fin is the authoritative finish time of the task running on each
	// node. A straggler event stretches it; an evTaskDone firing early
	// (scheduled before the stretch) re-arms at fin. Valid only while the
	// node is busy executing.
	fin []float64
	// dups tracks outstanding speculative duplicates (at most one per
	// task); resolved records are swap-removed, so the scan is O(in-flight
	// speculation), not O(trace).
	dups []specDup
	// ids is the fault plane's sampling scratch (retry targets, duplicate
	// hosts, straggler picks) — never aliased with simulation.nodeIDs,
	// whose probe/steal uses can be live when a fault path samples.
	ids []int
	// durScratch is the speculation threshold's sort scratch.
	durScratch []float64
}

// specDup is one outstanding speculative duplicate: task tidx of job jidx,
// originally running on orig, duplicated on dup (-1 while the duplicate is
// still in flight or queued). cancelled marks a duplicate whose original
// won before the duplicate started executing; it is squashed when it
// surfaces.
type specDup struct {
	jidx, tidx int32
	orig       int32
	dup        int32
	cancelled  bool
}

// newFaultState builds the fault plane for a normalized spec.
func newFaultState(spec policy.FaultSpec, seed int64, slots int) *faultState {
	f := &faultState{
		spec: spec,
		src:  randdist.New(seed + policy.SeedFaults),
		slow: make([]float64, slots),
		fin:  make([]float64, slots),
	}
	for i := range f.slow {
		f.slow[i] = 1
	}
	return f
}

// findDup returns the index of the outstanding duplicate record for the
// task, or -1.
func (f *faultState) findDup(jidx, tidx int32) int {
	for i := range f.dups {
		if f.dups[i].jidx == jidx && f.dups[i].tidx == tidx {
			return i
		}
	}
	return -1
}

// removeDup swap-removes record i.
func (f *faultState) removeDup(i int) {
	last := len(f.dups) - 1
	f.dups[i] = f.dups[last]
	f.dups = f.dups[:last]
}

// msgDelay is one message leg's delay: NetworkDelay plus, under the fault
// plane, uniform jitter in [0, Jitter). Round trips draw two legs.
//
//hawk:hotpath
func (s *simulation) msgDelay() float64 {
	if s.flt == nil || s.flt.spec.Jitter == 0 {
		return s.cfg.NetworkDelay
	}
	return s.cfg.NetworkDelay + s.flt.spec.Jitter*s.flt.src.Float64()
}

// hop puts ev on the wire for legs message legs — the only way a message is
// sent: one leg for a probe, central placement, direct task or speculation
// cancel, two for the reply round trip. When every leg takes the same
// NetworkDelay (no fault plane, or one without jitter) that is an engine post,
// which keeps the event out of the priority queue; jittered legs each draw
// their own delay and the sum is an ordinary After. Either way the event fires
// exactly where After of legs msgDelay() draws would put it.
//
//hawk:hotpath
func (s *simulation) hop(legs int, ev simEvent) {
	if s.flt == nil || s.flt.spec.Jitter == 0 {
		s.eng.Post(legs, ev)
		return
	}
	d := s.msgDelay()
	for i := 1; i < legs; i++ {
		d += s.msgDelay()
	}
	s.eng.After(d, ev)
}

// faultDrop draws one loss decision and accounts a drop in counter. Only
// called with s.flt != nil; a zero probability draws nothing.
func (s *simulation) faultDrop(p float64, counter *int64) bool {
	if p == 0 || s.flt.src.Float64() >= p {
		return false
	}
	*counter++
	return true
}

// The three send helpers below are the only places a scheduler message is
// put on the wire, first send and re-send alike. Each draws the class's
// loss decision when the fault plane is on — a dropped send schedules the
// timeout that will retry it as attempt+1 after its Backoff — and otherwise
// delivers after its legs' delay (hop); with no fault plane that is exactly
// the reliable NetworkDelay send.

// sendProbe dispatches one batch-sampling probe; a dropped one times out at
// the scheduler, which retries toward a fresh node.
//
//hawk:hotpath
func (s *simulation) sendProbe(jidx, nodeID int32, attempt int) {
	if s.flt != nil && s.faultDrop(s.flt.spec.ProbeLoss, &s.flt.drops.Probes) {
		s.eng.After(s.flt.spec.Backoff(attempt+1), simEvent{
			kind: evProbeTimeout, ref: -1, jidx: jidx,
			flags: uint8(attempt+1) << evfAttemptShift,
		})
		return
	}
	s.hop(1, simEvent{kind: evProbeArrive, ref: nodeID, jidx: jidx})
}

// sendReply issues node nodeID's task-request round trip for job jidx (two
// legs); a dropped one times out at the node, which holds its slot and
// re-issues it.
//
//hawk:hotpath
func (s *simulation) sendReply(nodeID int32, gen uint8, jidx int32, attempt int) {
	if s.flt != nil && s.faultDrop(s.flt.spec.ReplyLoss, &s.flt.drops.Replies) {
		s.eng.After(s.flt.spec.Backoff(attempt+1), simEvent{
			kind: evProbeTimeout, gen: gen, ref: nodeID, jidx: jidx,
			flags: uint8(attempt+1) << evfAttemptShift,
		})
		return
	}
	s.hop(2, simEvent{kind: evProbeReply, gen: gen, ref: nodeID, jidx: jidx})
}

// sendAssign dispatches one placed central task to its node; commit marks
// the multi-scheduler commit leg, a distinct message class. A dropped send
// retries toward the same node — its queue load was already charged by the
// assignment.
//
//hawk:hotpath
func (s *simulation) sendAssign(nodeID, jidx, tidx int32, sched uint8, commit bool, attempt int) {
	if s.flt != nil {
		p, cnt, cls := s.flt.spec.AssignLoss, &s.flt.drops.Assigns, evfCentral
		if commit {
			p, cnt, cls = s.flt.spec.CommitLoss, &s.flt.drops.Commits, evfCentral|evfCommit
		}
		if s.faultDrop(p, cnt) {
			s.eng.After(s.flt.spec.Backoff(attempt+1), simEvent{
				kind: evAssignRetry, ref: nodeID, jidx: jidx, aux: tidx, sched: sched,
				flags: cls | uint8(attempt+1)<<evfAttemptShift,
			})
			return
		}
	}
	s.hop(1, simEvent{kind: evTaskArrive, sched: sched, ref: nodeID, jidx: jidx, aux: tidx})
}

// probeTimeoutTick handles evProbeTimeout: a dropped probe-plane message's
// timeout fired. Bounded retry with exponential backoff; exhaustion
// degrades the probe to a fallback placement instead of hanging.
func (s *simulation) probeTimeoutTick(ev simEvent) {
	attempt := int(ev.flags >> evfAttemptShift)
	if ev.ref >= 0 {
		// Node side: the task-request round trip was dropped while the node
		// held its slot for it.
		if ev.gen != s.dyn.epoch[ev.ref] {
			return // the node failed meanwhile; its probe was re-sent at failure time
		}
		s.res.ProbeTimeouts++
		if attempt > s.flt.spec.MaxRetries {
			// The node gives up the round trip and frees its slot; the
			// probe's job degrades to a fallback placement.
			s.fallbackProbe(ev.jidx)
			s.nodes[ev.ref].finishSlot(s)
			return
		}
		s.res.ProbeRetries++
		s.sendReply(ev.ref, ev.gen, ev.jidx, attempt)
		return
	}
	// Scheduler side: the probe send itself was dropped; retry toward a
	// fresh pool node (the original target never knew about it).
	s.res.ProbeTimeouts++
	if attempt > s.flt.spec.MaxRetries {
		s.fallbackProbe(ev.jidx)
		return
	}
	s.res.ProbeRetries++
	js := &s.jobs[ev.jidx]
	dec := s.pol.Route(js.info())
	s.flt.ids = dec.Pool.SampleInto(s.flt.ids[:0], s.view, s.flt.src, 1)
	if len(s.flt.ids) == 0 {
		s.park(policy.WaitLostProbe, waiting{jidx: ev.jidx, tidx: -1})
		return
	}
	s.res.ProbesSent++
	s.sendProbe(ev.jidx, int32(s.flt.ids[0]), attempt)
}

// fallbackProbe degrades one abandoned probe chain after its retries
// exhaust: the job's next unserved task is placed (placeTask) instead of
// probed for — graceful degradation, never a hang.
func (s *simulation) fallbackProbe(jidx int32) {
	js := &s.jobs[jidx]
	js.probes--
	tidx, ok := js.nextTask()
	if !ok {
		// Other probes drained the job first — same as a probe cancel.
		s.res.Cancels++
		s.maybeFreeJob(jidx)
		return
	}
	s.res.FallbacksToCentral++
	s.placeTask(jidx, tidx)
}

// placeTask places one task outside the probe protocol: through the central
// queue if the policy has one, else straight to a sampled node.
func (s *simulation) placeTask(jidx, tidx int32) {
	if s.central != nil {
		s.centralTask(jidx, tidx)
		return
	}
	s.directPlace(jidx, tidx, 0)
}

// directPlace sends one task straight to a sampled live pool node, for
// policies without a central queue to fall back to (and for re-routing
// direct tasks off a failed node). attempt continues a dropped send's
// retry chain.
func (s *simulation) directPlace(jidx, tidx int32, attempt int) {
	js := &s.jobs[jidx]
	dec := s.pol.Route(js.info())
	s.flt.ids = dec.Pool.SampleInto(s.flt.ids[:0], s.view, s.flt.src, 1)
	if len(s.flt.ids) == 0 {
		s.park(policy.WaitExhausted, waiting{jidx: jidx, tidx: tidx})
		return
	}
	if s.faultDrop(s.flt.spec.AssignLoss, &s.flt.drops.Assigns) {
		s.eng.After(s.flt.spec.Backoff(attempt+1), simEvent{
			kind: evAssignRetry, ref: -1, jidx: jidx, aux: tidx,
			flags: uint8(attempt+1) << evfAttemptShift,
		})
		return
	}
	s.hop(1, simEvent{kind: evTaskDirect, ref: int32(s.flt.ids[0]), jidx: jidx, aux: tidx})
}

// assignRetryTick handles evAssignRetry: a dropped task placement's
// backoff expired. Exhausted chains wait (policy.WaitExhausted) — re-placed
// on the next node recovery, and surfaced in the deadlock report if none
// ever comes (the bounded terminal state of an all-drop scenario).
func (s *simulation) assignRetryTick(ev simEvent) {
	attempt := int(ev.flags >> evfAttemptShift)
	if attempt > s.flt.spec.MaxRetries {
		s.park(policy.WaitExhausted, waiting{jidx: ev.jidx, tidx: ev.aux})
		return
	}
	s.res.AssignRetries++
	if ev.ref < 0 {
		// Direct placement: re-run toward a freshly sampled node.
		s.directPlace(ev.jidx, ev.aux, attempt)
		return
	}
	s.sendAssign(ev.ref, ev.jidx, ev.aux, ev.sched, ev.flags&evfCommit != 0, attempt)
}

// taskDirectArrive handles evTaskDirect: a directly sent task (fallback
// placement or speculative duplicate) reaches its node's queue. Direct
// tasks carry no central-queue feedback.
func (s *simulation) taskDirectArrive(ev simEvent, now float64) {
	flags := entryTask | entryDirect | longFlag(s.jobs[ev.jidx].long)
	if ev.flags&evfSpec != 0 {
		flags |= entrySpec
	}
	e := entry{flags: flags, jidx: ev.jidx, tidx: ev.aux, enq: now}
	if !s.view.Alive(int(ev.ref)) {
		s.reroute(e) // the destination failed in flight
		return
	}
	s.nodes[ev.ref].enqueue(s, e)
}

// specLaunchTick handles evSpecLaunch: the speculation timer armed when the
// task started fires. If the task is still running on its original node, a
// duplicate launches on a freshly sampled host; otherwise the armed job
// reference resolves. The duplicate's send is deliberately loss-free — it
// is the defense, not the fault — but it does pick up jitter.
func (s *simulation) specLaunchTick(ev simEvent) {
	js := &s.jobs[ev.jidx]
	n := &s.nodes[ev.ref]
	r := s.dyn.run[ev.ref]
	if ev.gen != s.dyn.epoch[ev.ref] || !n.busy || r.probeWait || r.central || r.spec ||
		r.jidx != ev.jidx || r.task != ev.aux || s.flt.findDup(ev.jidx, ev.aux) >= 0 {
		// The task finished, moved, or is already speculated.
		js.probes--
		s.maybeFreeJob(ev.jidx)
		return
	}
	dec := s.pol.Route(js.info())
	s.flt.ids = dec.Pool.SampleInto(s.flt.ids[:0], s.view, s.flt.src, 1)
	if len(s.flt.ids) == 0 || int32(s.flt.ids[0]) == ev.ref {
		// No live host (or the sample landed on the straggler itself): skip.
		js.probes--
		s.maybeFreeJob(ev.jidx)
		return
	}
	s.res.SpeculativeLaunches++
	s.flt.dups = append(s.flt.dups, specDup{jidx: ev.jidx, tidx: ev.aux, orig: ev.ref, dup: -1})
	s.hop(1, simEvent{kind: evTaskDirect, flags: evfSpec, ref: int32(s.flt.ids[0]), jidx: ev.jidx, aux: ev.aux})
}

// specBegin gates a speculative duplicate popping at the head of a node's
// queue: false means the duplicate is obsolete (its original already won)
// and the entry is discarded.
func (s *simulation) specBegin(n *node, jidx, tidx int32) bool {
	i := s.flt.findDup(jidx, tidx)
	if i < 0 || s.flt.dups[i].cancelled {
		if i >= 0 {
			s.flt.removeDup(i)
		}
		s.jobs[jidx].probes--
		s.maybeFreeJob(jidx)
		return false
	}
	s.flt.dups[i].dup = n.id
	return true
}

// specResolve applies first-completion-wins when a completed probe-path
// task has a speculative duplicate outstanding: the completion proceeds
// and the losing copy is cancelled through the incarnation machinery (its
// pending completion event goes stale immediately; the cancellation
// message frees its slot when it lands).
func (s *simulation) specResolve(jidx, tidx int32, isSpec bool) {
	i := s.flt.findDup(jidx, tidx)
	if i < 0 {
		return
	}
	d := s.flt.dups[i]
	js := &s.jobs[jidx]
	if isSpec {
		// The duplicate finished first: speculation paid off.
		s.res.SpeculativeWins++
		s.flt.removeDup(i)
		s.cancelRunning(d.orig, jidx, tidx)
		js.probes--
		return
	}
	// The original finished first.
	s.res.SpeculativeWasted++
	if d.dup >= 0 {
		s.flt.removeDup(i)
		s.cancelRunning(d.dup, jidx, tidx)
		js.probes--
		return
	}
	// The duplicate is still in flight or queued: squash it when it
	// surfaces (specBegin / specAbandon); the record keeps the reference.
	s.flt.dups[i].cancelled = true
}

// cancelRunning cancels the speculation loser executing (jidx, tidx) on
// nodeID: its completion event goes stale via the epoch bump, the slot
// holds a recognizable zombie (runRef jidx -1) until the cancellation
// message lands (evSpecCancel), and the node then moves on.
func (s *simulation) cancelRunning(nodeID, jidx, tidx int32) {
	n := &s.nodes[nodeID]
	r := s.dyn.run[nodeID]
	if !n.busy || r.probeWait || r.jidx != jidx || r.task != tidx {
		return // already gone (defensive; the record's invariants keep it live)
	}
	s.dyn.epoch[nodeID]++
	s.dyn.run[nodeID] = runRef{jidx: -1, task: -1}
	s.hop(1, simEvent{kind: evSpecCancel, gen: s.dyn.epoch[nodeID], ref: nodeID, jidx: jidx})
}

// specCancelTick handles evSpecCancel: the cancellation lands and the
// loser's node frees its slot.
func (s *simulation) specCancelTick(ev simEvent) {
	if ev.gen != s.dyn.epoch[ev.ref] {
		return // the node failed after the cancellation was sent
	}
	n := &s.nodes[ev.ref]
	if !n.busy || s.dyn.run[ev.ref].jidx >= 0 {
		return // the slot was already freed or reused
	}
	n.finishSlot(s)
}

// specAbandon handles a speculative duplicate that dies before executing:
// its entry drained from a failed node's queue, or its send reached a node
// that failed in flight. If the original still runs, the duplicate is
// simply wasted; if the original died after the launch, the abandoned
// duplicate was the task's only copy and it re-serves through a fresh
// probe, inheriting the duplicate's job reference.
func (s *simulation) specAbandon(jidx, tidx int32) {
	i := s.flt.findDup(jidx, tidx)
	if i < 0 {
		return
	}
	d := s.flt.dups[i]
	s.flt.removeDup(i)
	js := &s.jobs[jidx]
	if !d.cancelled && !s.taskRunningOn(d.orig, jidx, tidx) {
		js.lost = append(js.lost, tidx)
		s.resendProbe(jidx)
		return
	}
	if !d.cancelled {
		s.res.SpeculativeWasted++
	}
	js.probes--
	s.maybeFreeJob(jidx)
}

// taskRunningOn reports whether nodeID is currently executing (jidx, tidx)
// as a plain (non-speculative) task.
func (s *simulation) taskRunningOn(nodeID, jidx, tidx int32) bool {
	n := &s.nodes[nodeID]
	r := s.dyn.run[nodeID]
	return n.busy && !r.probeWait && !r.spec && r.jidx == jidx && r.task == tidx
}

// dupTakesOver checks whether a failed original's task survives as a
// speculative duplicate; true means there is nothing to re-serve. A
// running duplicate becomes the task's real execution immediately; a
// queued or in-flight one keeps its record and runs when it surfaces
// (specAbandon rescues the task if it dies too).
func (s *simulation) dupTakesOver(jidx, task int32) bool {
	if s.flt == nil {
		return false
	}
	i := s.flt.findDup(jidx, task)
	if i < 0 {
		return false
	}
	if s.flt.dups[i].dup >= 0 {
		s.flt.removeDup(i)
		s.jobs[jidx].probes--
		s.maybeFreeJob(jidx)
	}
	return true
}

// straggleTick handles evStraggle: scripted straggler event idx fires.
func (s *simulation) straggleTick(idx int, now float64) {
	ev := s.flt.spec.Stragglers[idx]
	if ev.Count > 0 {
		s.flt.ids = s.view.SampleAllInto(s.flt.ids[:0], s.flt.src, ev.Count)
		for _, id := range s.flt.ids {
			s.straggleNode(int32(id), ev.Factor, now)
		}
		return
	}
	s.straggleNode(int32(ev.Node), ev.Factor, now)
}

// straggleNode applies one slowdown: future tasks on the node execute
// Factor times slower, and the task in flight stretches — its remaining
// work is re-scaled and the authoritative finish time moves out, with the
// already-scheduled completion re-arming at it. A factor reduction never
// shrinks an in-flight task retroactively (the completion already fired or
// is correctly scheduled); it only speeds up subsequent tasks.
func (s *simulation) straggleNode(id int32, factor, now float64) {
	old := s.flt.slow[id]
	s.flt.slow[id] = factor
	s.res.StragglerSlowdowns++
	n := &s.nodes[id]
	if n.busy && s.flt.fin[id] > now && s.dyn.run[id].task >= 0 && s.dyn.run[id].jidx >= 0 {
		if nf := now + (s.flt.fin[id]-now)*factor/old; nf > s.flt.fin[id] {
			s.flt.fin[id] = nf
		}
	}
}
