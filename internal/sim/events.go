package sim

import (
	"fmt"
	"math"

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
	// evTaskArrive: a centrally placed task — or, with evfSpec, a
	// speculative duplicate — reaches the queue of node ref after one
	// network delay (jidx; aux = task index within the job, which
	// determines its duration). If the node failed in flight, the task goes
	// back to its sender (reroute).
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
	// evSnapRefresh: scheduler ref refreshes its stale snapshot
	// (multi-scheduler model). The chain is activity-gated: it re-arms
	// itself only while the scheduler keeps placing work, so an idle run
	// drains instead of refreshing forever. gen pins the scheduler's
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
	// evReplyTimeout: node ref's task-request round trip was dropped
	// (fault injection) and its timeout fires; the node re-issues it (jidx;
	// attempt in the flags high bits; gen pins the node's incarnation). The
	// re-send of attempt Faults.MaxRetries+1 is reliable.
	evReplyTimeout
	// evResend: a dropped scheduler→node message (probe, assignment or
	// commit) is re-sent to ref after its backoff (fault injection). The
	// evfCentral bit marks a placement, with evfCommit the multi-scheduler
	// commit, whose queue load was already charged (aux = task index);
	// without it the message is a probe. jidx; attempt in the flags high
	// bits. The re-send of attempt Faults.MaxRetries+1 is reliable.
	evResend
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
	evfCentral uint8 = 1 << 0 // evTaskDone/evResend: centrally placed task
	evfSpec    uint8 = 1 << 1 // evTaskArrive/evTaskDone: speculative duplicate
	evfCommit  uint8 = 1 << 2 // evResend: multi-scheduler commit message class
	// evfAttemptShift positions the retry attempt of evReplyTimeout and
	// evResend in the flags high bits (range [0, 31]; MaxFaultRetries
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
// drives; the clock has already advanced to now. The first event past a
// utilization boundary records the samples up to it before it runs (see
// sampleUpTo). The s.dyn nil checks are the whole cost of the dynamic
// cluster model on a churn-free run: one pointer compare per event, with gen
// always equal to the zero epoch.
//
//hawk:hotpath
func (s *simulation) dispatch(now float64, ev simEvent) {
	if now > s.nextSample && s.jobsDone < s.totalJobs {
		s.sampleUpTo(now)
	}
	switch ev.kind {
	case evSubmit:
		s.submitNext(ev.ref)
	case evProbeArrive:
		e := entry{flags: longFlag(s.jobs[ev.jidx].long), jidx: ev.jidx, tidx: -1}
		if s.dyn != nil && !s.view.Alive(int(ev.ref)) {
			s.reroute(e) // the destination failed while the probe was in flight
			return
		}
		if s.arrived != nil {
			e = s.arrived(e, now)
		}
		s.nodes[ev.ref].enqueue(s, e)
	case evTaskArrive:
		e := entry{flags: entryTask | longFlag(s.jobs[ev.jidx].long), jidx: ev.jidx, tidx: ev.aux, sched: ev.sched}
		if ev.flags&evfSpec != 0 {
			e.flags |= entrySpec
		}
		if s.dyn != nil && !s.view.Alive(int(ev.ref)) {
			s.reroute(e) // the destination failed while the task was in flight
			return
		}
		if s.arrived != nil {
			e = s.arrived(e, now)
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
	case evReplyTimeout:
		s.replyTimeoutTick(ev)
	case evResend:
		s.resendTick(ev)
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
		if err := workload.CheckJob(nxt); err != nil {
			s.failRun(fmt.Errorf("workload: %w", err)) //hawk:allow fatal-abort path, runs at most once per run
			return
		}
		if err := s.order.Check(s.meta.Name, nxt); err != nil {
			s.failRun(err)
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

// utilizationInterval is the utilization sampling period in seconds, the
// paper's (§2.3, §4.2).
const utilizationInterval = 100

// maxUtilizationSamples bounds each utilization series: about 3.3 simulated
// years at utilizationInterval, where the paper's month-long trace needs about
// 26 k samples. Only a finite but huge time (a 1e300 submit or duration)
// reaches it, and it turns a series that would grow until memory ran out into
// an error. It also keeps nextSample below 2⁵³ intervals, past which adding
// an interval no longer advances it.
const maxUtilizationSamples = 1 << 20

// sampleUpTo records the utilization at every boundary before now — the
// paper's periodic sample (§2.3, §4.2) — while jobs remain. dispatch calls it
// before the first event past a boundary runs, so the sample at b sees every
// event at instants ≤ b: the busy state as it stood. The general series is
// the busy fraction of the live general partition, the robustness figures'
// measure of stealing keeping it fed during a central outage.
func (s *simulation) sampleUpTo(now float64) {
	if float64(s.res.Utilization.Len())+(now-s.nextSample)/utilizationInterval > maxUtilizationSamples {
		s.failRun(fmt.Errorf("sim: utilization sampling up to t=%g every %d s would take more than %d samples",
			now, utilizationInterval, maxUtilizationSamples))
		s.nextSample = math.Inf(1)
		return
	}
	busy, general := float64(s.busyNodes)/float64(s.slots), 0.0
	if aliveGeneral := s.view.AliveGeneral(); aliveGeneral > 0 {
		general = float64(s.busyGeneral) / float64(aliveGeneral)
	}
	for ; s.nextSample < now; s.nextSample += utilizationInterval {
		s.res.Utilization.AddAt(s.nextSample, busy)
		s.res.GeneralUtilization.AddAt(s.nextSample, general)
	}
}
