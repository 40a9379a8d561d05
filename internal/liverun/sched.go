package liverun

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
)

// The live engine's concurrent multi-scheduler model, mirroring the
// simulator's (see internal/sim/sched.go) with real concurrency instead of
// virtual-clock interleaving: each scheduler is backed by goroutines that
// place tasks against a *stale* mirror of the shared central queue,
// refreshed by a per-scheduler ticker, and commit through a versioned
// claim protocol under the central scheduler's lock. A lost claim really
// sleeps out its backoff before retrying, and a placement that exhausts
// its retries refreshes and places against fresh state — the shared-state
// optimistic concurrency the multi-scheduler experiments measure, here
// with genuine data-race pressure (the -race tests drive this path).
//
// Everything hangs off cluster.mscheds, nil unless Config.Schedulers is
// set, so a single-scheduler run never takes a scheduler's lock.

// liveScheduler is one concurrent scheduler: an independent mirror of the
// central waiting-time queue plus the snapshot bookkeeping the claim
// protocol validates against.
type liveScheduler struct {
	id int32
	c  *cluster

	mu sync.Mutex
	// local mirrors the shared central queue as of the last refresh (nil
	// when the policy has no centralized component); between refreshes it
	// tracks only this scheduler's own placements.
	local   *core.CentralQueue
	snapVer uint64
	snapAt  time.Time
	alive   bool
}

func (ls *liveScheduler) isAlive() bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.alive
}

// refresh brings the mirror up to the shared truth and stamps the snapshot
// version and time.
func (ls *liveScheduler) refresh() {
	ls.mu.Lock()
	ls.refreshLocked()
	ls.mu.Unlock()
}

// refreshLocked is refresh with ls.mu held (lock order: ls.mu before the
// cluster lock, everywhere).
func (ls *liveScheduler) refreshLocked() {
	if ls.local != nil {
		ls.snapVer = ls.c.central.snapshotInto(ls.local)
	}
	ls.snapAt = time.Now()
	ls.c.count(&ls.c.res.SnapshotRefreshes, 1)
}

// run is the scheduler's snapshot refresher: tick at the configured
// interval until the cluster stops. The simulator gates its refresh chain
// on placement activity to keep its event heap drainable; real tickers
// have no such constraint, so this one just runs.
func (ls *liveScheduler) run(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if ls.isAlive() {
				ls.refresh()
			}
		case <-ls.c.stop:
			return
		}
	}
}

// placeTask runs the optimistic placement loop for one task: assign on the
// stale mirror, claim against the shared truth, and on conflict back off
// and retry — refreshing the snapshot once the configured retries are
// exhausted. A dead scheduler hands the task back to the central
// scheduler, which re-hashes it to a survivor (or parks it); a central
// scheduler gone unavailable meanwhile parks it on the waitlist.
func (ls *liveScheduler) placeTask(jr *jobRuntime, dur time.Duration, handle int) {
	c := ls.c
	backoff := time.Duration(c.cfg.Schedulers.RetryBackoff * float64(time.Second))
	attempt := 0
	for {
		if !ls.isAlive() {
			c.count(&c.res.SchedulerReassigned, 1)
			c.central.placeTask(jr, dur, handle)
			return
		}
		c.mu.Lock()
		parked := c.central.unavailableLocked()
		if parked {
			c.parkLocked(policy.WaitCentral, entry{job: jr, dur: dur, handle: handle})
		}
		c.mu.Unlock()
		if parked {
			return
		}
		ls.mu.Lock()
		if ls.local.Len() == 0 {
			// Mirror last synced while the truth had no live server;
			// catch up before assigning.
			ls.refreshLocked()
		}
		nodeID, _ := ls.local.Assign(c.nowSeconds(), jr.est)
		sinceVer, snapAt := ls.snapVer, ls.snapAt
		ls.mu.Unlock()
		if c.central.tryCommit(nodeID, ls.id, sinceVer, jr.est) {
			c.count(&c.res.CentralAssigns, 1)
			c.countTime(&c.res.SnapshotStalenessSeconds, time.Since(snapAt))
			go c.deliverTask(c.nodes[nodeID], entry{job: jr, dur: dur, handle: handle, sched: ls.id}, true)
			return
		}
		// Conflict: the mirror's Assign already penalized the contested
		// server, so the retry naturally spreads to another one.
		c.count(&c.res.PlacementConflicts, 1)
		attempt++
		if c.cfg.Schedulers.RetriesExhausted(attempt) {
			ls.refresh()
			attempt = 0
			continue
		}
		c.count(&c.res.ConflictRetries, 1)
		if backoff > 0 {
			time.Sleep(backoff)
		}
	}
}

// mirrorStarted relays a task start to the placing scheduler's mirror, so
// its own placements' lifecycle stays fresh between snapshot refreshes.
func (c *cluster) mirrorStarted(sched int32, nodeID int, est float64, d time.Duration) {
	ls := c.mscheds[sched]
	ls.mu.Lock()
	if ls.alive && ls.local != nil {
		ls.local.TaskStarted(nodeID, c.nowSeconds(), est, d.Seconds())
	}
	ls.mu.Unlock()
}

// mirrorFinished relays a task completion to the placing scheduler's
// mirror.
func (c *cluster) mirrorFinished(sched int32, nodeID int) {
	ls := c.mscheds[sched]
	ls.mu.Lock()
	if ls.alive && ls.local != nil {
		ls.local.TaskFinished(nodeID, c.nowSeconds())
	}
	ls.mu.Unlock()
}

// failScheduler applies a scripted scheduler failure: the scheduler leaves
// the live set; placements it still has in flight notice on their next
// loop iteration and re-hash to a survivor. Failing a dead scheduler is a
// no-op.
func (c *cluster) failScheduler(id int) {
	ls := c.mscheds[id]
	ls.mu.Lock()
	if !ls.alive {
		ls.mu.Unlock()
		return
	}
	ls.alive = false
	ls.mu.Unlock()
	c.mu.Lock()
	c.msLive.Fail(int32(id))
	c.mu.Unlock()
	c.count(&c.res.SchedulerFailures, 1)
}

// recoverScheduler returns a failed scheduler to service with a fresh
// snapshot and re-places the tasks that waited for a live scheduler.
func (c *cluster) recoverScheduler(id int) {
	ls := c.mscheds[id]
	ls.mu.Lock()
	if ls.alive {
		ls.mu.Unlock()
		return
	}
	ls.refreshLocked()
	ls.alive = true
	ls.mu.Unlock()
	c.mu.Lock()
	c.msLive.Recover(int32(id))
	released := c.releaseLocked(policy.SchedulerRecovered)
	c.mu.Unlock()
	c.count(&c.res.SchedulerRecoveries, 1)
	c.resume(released)
}
