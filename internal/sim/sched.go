package sim

import (
	"repro/internal/core"
	"repro/internal/policy"
)

// The concurrent multi-scheduler model (§4.10): N distributed schedulers
// share one cluster. Each scheduler owns an independent local copy of the
// centralized queue, a *stale snapshot* refreshed on a configurable cadence;
// it places central work optimistically against that snapshot and resolves
// collisions with the shared truth through a claim/commit protocol
// (detect-and-retry with bounded backoff, Omega style). Probes sample the
// live membership, as on the live engine. Jobs hash-partition across the
// live schedulers by job id and re-hash when their scheduler fails;
// scheduler fail/recover rides the same scripted-churn machinery as node
// membership.
//
// The whole model hangs off simulation.ms, nil unless Config.Schedulers is
// set — every hot path guards on that one pointer, exactly like s.dyn, so a
// single-scheduler run never pays for it. The simulation stays
// single-threaded and deterministic: "concurrent" schedulers interleave on
// the virtual clock, conflicts arise from snapshot staleness rather than
// from data races, and all schedulers draw from the run's one seeded stream.

// multiSched is the root of the multi-scheduler state.
type multiSched struct {
	spec   policy.SchedulerSpec
	scheds []schedState
	// live is the live-scheduler set jobs hash-partition over.
	live *core.SchedulerSet
	// claims is the shared truth's claim record, the table the live
	// engine's central scheduler commits through too.
	claims *core.ClaimTable
}

// schedState is one distributed scheduler.
type schedState struct {
	// local is this scheduler's mirror of the shared central queue (nil
	// when the policy has no centralized component). It is synced from the
	// truth on each snapshot refresh and tracks the scheduler's *own*
	// placements in between — other schedulers' commits stay invisible
	// until the next refresh, which is precisely the staleness the model
	// exists to measure.
	local *core.CentralQueue
	// snapVer is the shared claim-version at the last refresh: claims no
	// newer than it were visible in this snapshot, so a foreign claim
	// above it is a conflict (core.ClaimTable.Claim).
	snapVer uint64
	snapAt  float64 // time of the last refresh (staleness accounting)
	// retryQ is the FIFO of conflicted placements awaiting their backoff;
	// popping advances retryHead (rewound when drained) so the backing
	// array is reused, mirroring node.queue.
	retryQ    []schedRetry
	retryHead int32
	// placed counts placements since the last snapshot refresh; the
	// refresh chain (snapRefreshTick) uses it as an activity gate and
	// disarms after an idle interval so a quiescent run can drain.
	placed int64
	// epoch counts the scheduler's incarnations, bumped on failure, so
	// refresh-chain and retry events from before a failure are
	// recognizably stale — the node-epoch trick applied to schedulers.
	epoch uint8
	alive bool
	armed bool // a refresh-chain event is pending
}

// schedRetry is one conflicted placement waiting out its backoff.
type schedRetry struct {
	jidx, tidx int32
	attempt    int8
}

// initMultiSched builds the per-scheduler state: every scheduler starts
// live, with a fresh (accurate) snapshot at t=0.
func (s *simulation) initMultiSched() {
	spec := *s.cfg.Schedulers
	s.ms = &multiSched{
		spec:   spec,
		scheds: make([]schedState, spec.Count),
		live:   core.NewSchedulerSet(spec.Count),
		claims: core.NewClaimTable(s.slots),
	}
	for i := range s.ms.scheds {
		sd := &s.ms.scheds[i]
		sd.alive = true
		if s.central != nil {
			// A mirror is born the way it is refreshed: as a copy of
			// the truth.
			sd.local = core.NewCentralQueue(nil)
			sd.local.SyncFrom(s.central)
		}
	}
}

// mirrorTaskStarted reflects a task start into the placing scheduler's
// local queue (no-op if that scheduler is down — its mirror resyncs from
// the truth on recovery anyway).
//
//hawk:hotpath
func (m *multiSched) mirrorTaskStarted(k uint8, nodeID int, now, estimate, dur float64) {
	if sd := &m.scheds[k]; sd.alive {
		sd.local.TaskStarted(nodeID, now, estimate, dur)
	}
}

// mirrorTaskFinished reflects a task completion into the placing
// scheduler's local queue.
//
//hawk:hotpath
func (m *multiSched) mirrorTaskFinished(k uint8, nodeID int, now float64) {
	if sd := &m.scheds[k]; sd.alive {
		sd.local.TaskFinished(nodeID, now)
	}
}

// refreshSched brings scheduler k's snapshot up to the shared truth: the
// claim version and the central-queue mirror.
func (s *simulation) refreshSched(k int32, now float64) {
	sd := &s.ms.scheds[k]
	sd.snapVer = s.ms.claims.Version()
	sd.snapAt = now
	s.res.SnapshotRefreshes++
	if sd.local != nil {
		sd.local.SyncFrom(s.central)
	}
}

// touchSched records placement activity for scheduler k and arms its
// periodic snapshot-refresh chain if dormant. A scheduler waking from
// dormancy with a snapshot older than the refresh interval catches up
// immediately — it would have refreshed in the meantime had the chain kept
// running.
//
//hawk:hotpath
func (s *simulation) touchSched(k uint8) {
	sd := &s.ms.scheds[k]
	sd.placed++
	if sd.armed {
		return
	}
	sd.armed = true
	now := s.eng.Now()
	if now-sd.snapAt >= s.ms.spec.SnapshotInterval {
		s.refreshSched(int32(k), now)
	}
	s.eng.After(s.ms.spec.SnapshotInterval, simEvent{kind: evSnapRefresh, ref: int32(k), gen: sd.epoch})
}

// snapRefreshTick is the evSnapRefresh handler: refresh scheduler k's
// snapshot and re-arm the chain — unless the chain is stale (scheduler
// failed since), the run is over, or the scheduler placed nothing in the
// last interval (dormant; touchSched re-arms it on the next placement).
// The dormancy gate is what lets a stuck scenario drain: an armed chain
// would keep the event queue non-empty, refreshing forever, instead of
// reporting the deadlock.
func (s *simulation) snapRefreshTick(k int32, gen uint8, now float64) {
	sd := &s.ms.scheds[k]
	if gen != sd.epoch || !sd.alive {
		return // chain from a previous incarnation
	}
	if s.jobsDone >= s.totalJobs || sd.placed == 0 {
		sd.armed = false
		return
	}
	sd.placed = 0
	s.refreshSched(k, now)
	s.eng.After(s.ms.spec.SnapshotInterval, simEvent{kind: evSnapRefresh, ref: k, gen: sd.epoch})
}

// msAssignOwner picks (or re-picks) the owning scheduler for a routed job,
// parking the job when no scheduler is live. Called on every routeJob so a
// parked-and-released job re-hashes over the current live set.
//
//hawk:hotpath
func (s *simulation) msAssignOwner(idx int32) bool {
	owner := s.ms.live.Owner(s.jobs[idx].id)
	if owner < 0 {
		s.park(policy.WaitSchedJob, waiting{jidx: idx, tidx: -1})
		return false
	}
	s.jobs[idx].owner = uint8(owner)
	s.touchSched(uint8(owner))
	return true
}

// ensureOwner verifies the job's owning scheduler is live, re-hashing to a
// survivor if it failed; false means no scheduler is live at all.
func (s *simulation) ensureOwner(jidx int32) bool {
	js := &s.jobs[jidx]
	if s.ms.scheds[js.owner].alive {
		return true
	}
	owner := s.ms.live.Owner(js.id)
	if owner < 0 {
		return false
	}
	js.owner = uint8(owner)
	s.res.SchedulerReassigned++
	return true
}

// placeCentral runs one optimistic placement by the job's owning scheduler:
// a §3.7 min-waiting assignment against the scheduler's *stale* local
// queue, then a claim against the shared truth. A won claim commits; a
// lost claim (another scheduler claimed the node since this scheduler's
// snapshot, or the node died unseen) retries after a backoff, and a
// placement that exhausts its retries forces a snapshot refresh and places
// against fresh state, which cannot conflict. The caller has checked
// centralUnavailable.
//
//hawk:hotpath
func (s *simulation) placeCentral(jidx, tidx int32, attempt int8) {
	k := s.jobs[jidx].owner
	sd := &s.ms.scheds[k]
	s.touchSched(k)
	now := s.eng.Now()
	if sd.local.Len() == 0 {
		// The mirror last synced while the truth had no live server; the
		// truth has some now (the caller checked), so catch up first.
		s.refreshSched(int32(k), now)
	}
	estimate := s.jobs[jidx].estimate
	nodeID, _ := sd.local.Assign(now, estimate)
	// A node that died unseen by the snapshot cannot be claimed.
	if s.view.Alive(nodeID) && s.ms.claims.Claim(nodeID, int32(k), sd.snapVer) {
		s.commitCentral(k, nodeID, jidx, tidx, now)
		return
	}
	// Conflict. The local Assign already bumped the chosen server's
	// mirrored load, which is exactly what we want: the retry will pick a
	// different server, and the phantom load washes out at the next sync.
	s.res.PlacementConflicts++
	if s.ms.spec.RetriesExhausted(int(attempt) + 1) {
		s.refreshSched(int32(k), now)
		nodeID, _ = sd.local.Assign(now, estimate)
		if !s.view.Alive(nodeID) || !s.ms.claims.Claim(nodeID, int32(k), sd.snapVer) {
			panic("sim: claim conflict against a fresh snapshot")
		}
		s.commitCentral(k, nodeID, jidx, tidx, now)
		return
	}
	s.res.ConflictRetries++
	sd.retryQ = append(sd.retryQ, schedRetry{jidx: jidx, tidx: tidx, attempt: attempt + 1})
	s.eng.After(s.cfg.Backoff(1), simEvent{kind: evSchedRetry, ref: int32(k), gen: sd.epoch})
}

// commitCentral publishes a won placement into the shared truth queue and
// dispatches the task, accounting how stale the deciding snapshot was.
//
//hawk:hotpath
func (s *simulation) commitCentral(k uint8, nodeID int, jidx, tidx int32, now float64) {
	sd := &s.ms.scheds[k]
	s.central.AddLoad(nodeID, now, s.jobs[jidx].estimate)
	s.res.CentralAssigns++
	s.res.SnapshotStalenessSeconds += now - sd.snapAt
	s.sendAssign(int32(nodeID), jidx, tidx, k, true, 0)
}

// schedRetryTick is the evSchedRetry handler: the oldest conflicted
// placement of scheduler k has waited out its backoff. Each pushed retry
// schedules exactly one event, so the FIFO and the events pair up; a
// failure drains the queue and bumps the epoch, so leftover events are
// recognizably stale.
func (s *simulation) schedRetryTick(k int32, gen uint8) {
	sd := &s.ms.scheds[k]
	if gen != sd.epoch || !sd.alive {
		return // retries were re-assigned when the scheduler failed
	}
	r := sd.retryQ[sd.retryHead]
	sd.retryHead++
	if int(sd.retryHead) == len(sd.retryQ) {
		sd.retryQ = sd.retryQ[:0]
		sd.retryHead = 0
	}
	if s.centralUnavailable() {
		s.park(policy.WaitCentral, waiting{jidx: r.jidx, tidx: r.tidx})
		return
	}
	s.placeCentral(r.jidx, r.tidx, r.attempt)
}

// msReplyReady gates a probe reply on the owning scheduler being live: a
// reply is the scheduler's answer, so a dead owner means the answer was
// lost. The node re-requests from the job's re-hashed owner (one extra
// round trip), or parks until a scheduler recovers; either way the node's
// slot stays held, like any probe awaiting its reply.
func (s *simulation) msReplyReady(ev simEvent) bool {
	if s.ms.scheds[s.jobs[ev.jidx].owner].alive {
		return true
	}
	if !s.ensureOwner(ev.jidx) {
		s.park(policy.WaitSchedReply, waiting{jidx: ev.jidx, tidx: -1, node: ev.ref, gen: ev.gen})
		return false
	}
	s.res.ProbesLost++
	s.sendReply(ev.ref, ev.gen, ev.jidx, 0)
	return false
}

// failScheduler applies a scripted scheduler failure: the scheduler leaves
// the live set, its pending conflicted placements re-hash to the survivors
// (or park), and its refresh chain and retry events go stale via the epoch
// bump. Jobs it owned re-hash lazily, at their next interaction
// (ensureOwner / msReplyReady). Failing a dead scheduler is a no-op.
func (s *simulation) failScheduler(id int32) {
	sd := &s.ms.scheds[id]
	if !sd.alive {
		return
	}
	sd.alive = false
	sd.epoch++
	sd.armed = false
	sd.placed = 0
	s.res.SchedulerFailures++
	s.ms.live.Fail(id)
	for _, r := range sd.retryQ[sd.retryHead:] {
		s.centralTask(r.jidx, r.tidx)
	}
	sd.retryQ = sd.retryQ[:0]
	sd.retryHead = 0
}

// recoverScheduler returns a failed scheduler to service with a fresh
// snapshot and releases everything that waited for a live scheduler.
// Recovering a live scheduler is a no-op.
func (s *simulation) recoverScheduler(id int32, now float64) {
	sd := &s.ms.scheds[id]
	if sd.alive {
		return
	}
	sd.alive = true
	s.res.SchedulerRecoveries++
	s.ms.live.Recover(id)
	s.refreshSched(id, now)
	sd.placed = 0
	sd.armed = true
	s.eng.After(s.ms.spec.SnapshotInterval, simEvent{kind: evSnapRefresh, ref: id, gen: sd.epoch})
	s.release(policy.SchedulerRecovered)
}
