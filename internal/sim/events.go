package sim

import (
	"fmt"

	"repro/internal/workload"
)

// The simulator's typed-event union. Every discrete event a run executes is
// one flat simEvent value stored directly in the engine's queue — there are
// no per-event closures, so scheduling an event allocates nothing, and the
// payload carries no pointers, so the queue's backing arrays are opaque to
// the garbage collector. The payload is deliberately compact (16 bytes: three
// int32 refs and three tag bytes): the queue copies it on every insert, sort
// and pop, so its size is a direct multiplier on the engine's dominant loop.
// Job state lives in the simulation's flat jobs arena and events refer to it
// by int32 index; even a task's duration is carried as a task index (aux)
// into the job's duration slice rather than as a float64.
type evKind uint8

const (
	// evSubmit: the next trace job arrives at its scheduler (ref = the
	// job's position in submission order). The handler chains the
	// following submission, so at most one submit event is ever pending —
	// the event queue holds in-flight state, never the unsubmitted trace.
	evSubmit evKind = iota
	// evProbeArrive: a batch-sampling probe reaches the queue of node
	// ref after one network delay (jidx). If the node failed while the
	// probe was in flight, the probe goes back to its sender (reroute).
	evProbeArrive
	// evTaskArrive: a centrally placed task reaches the queue of node
	// ref after one network delay (jidx; aux = task index within the
	// job, which determines its duration). If the node failed in flight,
	// the task goes back to its sender (reroute).
	evTaskArrive
	// evProbeReply: the scheduler's answer to node ref's task request
	// lands after the request/response round trip (jidx). gen pins the
	// node's incarnation: a reply addressed to a failed node is stale
	// and dropped (the probe was re-sent at failure time).
	evProbeReply
	// evTaskDone: the task running on node ref completes (jidx, central;
	// aux = task index). gen pins the node's incarnation: a completion
	// from before a failure is stale — that task was lost and re-routed.
	evTaskDone
	// evSample: periodic cluster-utilization snapshot (no payload).
	evSample
	// evNodeFail: scripted churn — node ref leaves the cluster (ref < 0:
	// fail aux random live nodes instead). Work on the node is lost and
	// re-routed; see simulation.failNode.
	evNodeFail
	// evNodeRecover: scripted churn — node ref rejoins the cluster, idle
	// and empty (ref < 0: recover aux random dead nodes).
	evNodeRecover
	// evCentralDown: scripted churn — the centralized scheduler goes
	// offline; central placements wait (waitCentral).
	evCentralDown
	// evCentralUp: scripted churn — the centralized scheduler returns
	// and releases them.
	evCentralUp
	// evSnapRefresh: scheduler ref refreshes its stale cluster snapshot
	// (multi-scheduler model). The chain is activity-gated: it re-arms
	// itself only while the scheduler keeps placing work, so an idle run
	// drains instead of ticking forever. gen pins the scheduler's
	// incarnation; a chain armed before a scheduler failure is stale.
	evSnapRefresh
	// evSchedRetry: scheduler ref retries the oldest conflicted placement
	// in its retry queue after the backoff (multi-scheduler model). gen
	// pins the scheduler's incarnation; retries queued before a failure
	// were re-assigned at failure time and their events are stale.
	evSchedRetry
	// evSchedFail: scripted churn — distributed scheduler ref fails; its
	// pending work re-hashes to the survivors.
	evSchedFail
	// evSchedRecover: scheduler ref returns with a fresh
	// snapshot and drains work that waited for a live scheduler.
	evSchedRecover
	// evProbeTimeout: a dropped message of the probe plane times out
	// (fault injection). ref < 0: the scheduler's probe send was dropped
	// and it retries toward a fresh pool node (jidx; attempt in the flags
	// high bits). ref >= 0: node ref's task-request round trip was dropped
	// and the node re-issues it (gen pins the node's incarnation). An
	// attempt past Faults.MaxRetries abandons the probe and degrades the
	// job to a direct placement (fallbackProbe).
	evProbeTimeout
	// evAssignRetry: a dropped task-placement message retries after its
	// backoff (fault injection). ref >= 0: re-send the central assignment
	// (or, with evfCommit, the multi-scheduler commit) to the same node
	// ref — its queue load was already charged (jidx, aux = task index,
	// attempt in flags). ref < 0: re-run a direct placement toward a fresh
	// node. Exhausted retries park the task (waitExhausted).
	evAssignRetry
	// evTaskDirect: a directly sent task (central-queue-free fallback, or
	// a speculative duplicate when evfSpec is set) reaches the queue of
	// node ref (jidx; aux = task index). Direct tasks skip the central
	// queue's bookkeeping entirely.
	evTaskDirect
	// evSpecLaunch: the speculation timer armed when task aux of job jidx
	// started on node ref fires; if the task is still running there, a
	// duplicate launches on a fresh node (first completion wins). gen pins
	// the node's incarnation.
	evSpecLaunch
	// evSpecCancel: the cancellation message for a speculation loser
	// reaches node ref, freeing the slot its cancelled task occupied. gen
	// pins the post-cancellation incarnation.
	evSpecCancel
	// evStraggle: scripted straggler event aux (an index into
	// Faults.Stragglers) fires: the target nodes slow down, stretching
	// their in-flight tasks.
	evStraggle
)

// simEvent.flags bits. evfCentral replaces the old dedicated bool (a task
// placed by the centralized scheduler); the rest exist only on fault-plane
// events, so every pre-existing event still carries a zero byte there.
const (
	evfCentral uint8 = 1 << 0 // evTaskDone/evAssignRetry: centrally placed task
	evfSpec    uint8 = 1 << 1 // evTaskDone/evTaskDirect: speculative duplicate
	evfCommit  uint8 = 1 << 2 // evAssignRetry: multi-scheduler commit message class
	// evfAttemptShift positions the retry attempt of evProbeTimeout and
	// evAssignRetry in the flags high bits (range [0, 31]; MaxFaultRetries
	// keeps attempts inside it).
	evfAttemptShift = 3
)

// simEvent is the event payload; which fields are meaningful depends on
// kind (see the kind constants). ref is a deliberate union — the
// submission-order position for evSubmit, the node id otherwise — and jidx
// indexes the simulation's jobs arena, so the struct carries three int32s
// instead of any pointer. gen is the scheduling-time incarnation of node
// ref (see dynState.epoch); it is always zero on a churn-free run, where
// no event can ever be stale. TestHotStructSizes pins its size and
// pointer-freeness.
type simEvent struct {
	kind  evKind
	flags uint8 // evf* bits: placement class, speculation marker, retry attempt
	gen   uint8 // evProbeReply/evTaskDone: node incarnation; evSnapRefresh/evSchedRetry: scheduler incarnation
	sched uint8 // evTaskArrive/evTaskDone: placing scheduler (multi-scheduler model; 0 otherwise)
	ref   int32 // evSubmit: submission-order position; scheduler events: scheduler id; node events: node id
	jidx  int32 // index into simulation.jobs (the job-state arena)
	aux   int32 // evTaskArrive/evTaskDone: task index; churn events: random-pick count; evStraggle: script index
}

// dispatch executes one event. It is the single handler switch the engine
// drives; the clock has already advanced to now. The s.dyn nil checks are
// the whole cost of the dynamic cluster model on a churn-free run: one
// pointer compare per event, with gen always equal to the zero epoch.
//
//hawk:hotpath
func (s *simulation) dispatch(now float64, ev simEvent) {
	switch ev.kind {
	case evSubmit:
		s.submitNext(ev.ref)
	case evProbeArrive:
		e := entry{flags: longFlag(s.jobs[ev.jidx].long), jidx: ev.jidx, tidx: -1, enq: now}
		if s.dyn != nil && !s.view.Alive(int(ev.ref)) {
			s.reroute(e) // the destination failed while the probe was in flight
			return
		}
		s.nodes[ev.ref].enqueue(s, e)
	case evTaskArrive:
		e := entry{flags: entryTask | longFlag(s.jobs[ev.jidx].long), jidx: ev.jidx, tidx: ev.aux, sched: ev.sched, enq: now}
		if s.dyn != nil && !s.view.Alive(int(ev.ref)) {
			s.reroute(e) // the destination failed while the task was in flight
			return
		}
		s.nodes[ev.ref].enqueue(s, e)
	case evProbeReply:
		if s.dyn != nil && ev.gen != s.dyn.epoch[ev.ref] {
			return // stale: the node failed mid-round-trip; re-routed at failure time
		}
		if s.ms != nil && !s.msReplyReady(ev) {
			return // the job's scheduler died mid-round-trip; re-requested or parked
		}
		s.nodes[ev.ref].probeReply(s, ev.jidx)
	case evTaskDone:
		if s.dyn != nil && ev.gen != s.dyn.epoch[ev.ref] {
			return // stale: the task was lost with the node and re-executes elsewhere
		}
		if s.flt != nil && s.flt.fin[ev.ref] > now {
			// A straggler event stretched the running task after this
			// completion was scheduled; re-arm at the authoritative finish.
			s.eng.At(s.flt.fin[ev.ref], ev)
			return
		}
		s.nodes[ev.ref].taskDone(s, ev.jidx, ev.aux, ev.flags, ev.sched, now)
	case evSample:
		s.sampleTick(now)
	case evNodeFail:
		if ev.ref < 0 {
			s.failRandomNodes(now, int(ev.aux))
		} else {
			s.failNode(ev.ref, now)
		}
	case evNodeRecover:
		if ev.ref < 0 {
			s.recoverRandomNodes(now, int(ev.aux))
		} else {
			s.recoverNode(ev.ref, now)
		}
	case evCentralDown:
		s.centralOutageStart(now)
	case evCentralUp:
		s.centralOutageEnd(now)
	case evSnapRefresh:
		s.snapRefreshTick(ev.ref, ev.gen, now)
	case evSchedRetry:
		s.schedRetryTick(ev.ref, ev.gen)
	case evSchedFail:
		s.failScheduler(ev.ref)
	case evSchedRecover:
		s.recoverScheduler(ev.ref, now)
	case evProbeTimeout:
		s.probeTimeoutTick(ev)
	case evAssignRetry:
		s.assignRetryTick(ev)
	case evTaskDirect:
		s.taskDirectArrive(ev, now)
	case evSpecLaunch:
		s.specLaunchTick(ev)
	case evSpecCancel:
		s.specCancelTick(ev)
	case evStraggle:
		s.straggleTick(int(ev.aux), now)
	}
}

// submitNext submits the pending decoded job (submission-order position
// pos), pulling the next job from the source and chaining its submit
// event. Only one submit event is ever pending and only one undecoded job
// is ever held, which is what keeps the engine's peak queue length — and,
// on a streamed run, the decoded workload — proportional to in-flight
// state instead of to the trace length. The chain runs on the engine's
// reserved sequence numbers (position+1), reproducing the tie-break rank
// each submit would have had if every submit were preloaded before the
// run started.
//
//hawk:hotpath
func (s *simulation) submitNext(pos int32) {
	if s.failErr != nil {
		return // a prior source failure already aborted the run
	}
	job := s.pending
	s.pending = nil
	if next := pos + 1; int(next) < s.totalJobs {
		nxt, ok := s.source.Next()
		if !ok {
			err := workload.SourceErr(s.source)
			if err == nil {
				err = fmt.Errorf("sim: source %q ended after %d jobs, meta promised %d", s.meta.Name, s.submitted, s.totalJobs) //hawk:allow fatal-abort path, runs at most once per run
			}
			s.failRun(err)
			return
		}
		if nxt.SubmitTime < job.SubmitTime {
			s.failRun(fmt.Errorf("sim: source %q: job %d out of order: submit %g after %g", s.meta.Name, nxt.ID, nxt.SubmitTime, job.SubmitTime)) //hawk:allow fatal-abort path, runs at most once per run
			return
		}
		s.pending = nxt
		s.submitted++
		s.eng.AtReserved(nxt.SubmitTime, uint64(next)+1, simEvent{kind: evSubmit, ref: next})
	} else if err := workload.SourceErr(s.source); err != nil {
		// That was the last job, and a file source has looked past it.
		s.failRun(err)
		return
	}
	s.submit(job)
}

// sampleTick records one utilization sample and schedules the next, for as
// long as jobs remain — the periodic sampler the paper uses for §2.3/§4.2
// (every 100 s by default). Each tick is an ordinary event: relative to
// other events at the same instant it fires in insertion order, and the
// next tick is scheduled only after the current one runs. Alongside the
// whole-cluster series it samples the live general partition's busy
// fraction, the robustness figures' measure of stealing keeping that
// partition fed during a central outage.
//
//hawk:hotpath
func (s *simulation) sampleTick(now float64) {
	if s.jobsDone >= s.totalJobs {
		return
	}
	if s.eng.Pending() == 0 {
		// Nothing else is scheduled: every in-flight message and running
		// task is an event, so an empty queue means the remaining jobs are
		// waiting for a recovery no future event brings (a scenario that
		// never restores capacity). Stop the sampler so the engine drains
		// and run reports the deadlock instead of ticking forever.
		return
	}
	s.res.Utilization.AddAt(now, float64(s.busyNodes)/float64(s.slots))
	if aliveGeneral := s.view.AliveGeneral(); aliveGeneral > 0 {
		s.res.GeneralUtilization.AddAt(now, float64(s.busyGeneral)/float64(aliveGeneral))
	} else {
		s.res.GeneralUtilization.AddAt(now, 0)
	}
	s.nextSample += s.cfg.UtilizationInterval
	s.eng.At(s.nextSample, simEvent{kind: evSample})
}
