package liverun

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/randdist"
	"repro/internal/workload"
)

// cluster wires the node monitors, the distributed schedulers, and the
// centralized scheduler together.
type cluster struct {
	cfg      policy.Config
	pol      policy.Policy
	part     core.Partition
	steal    core.StealPolicy
	netDelay time.Duration
	nodes    []*nodeMonitor
	dscheds  []*distScheduler
	central  *centralScheduler
	stop     chan struct{}
	started  time.Time

	// view is the dynamic cluster model shared with the simulator's
	// engine: membership plus per-node speed factors. On a churn run
	// (dynamicView) viewMu serializes every sampler and every churn
	// transition against it (the simulator gets this for free from its
	// single-threaded event loop); it also guards probeSrc, churnSrc,
	// lostProbes, and parkedJobs. Without churn the view is immutable
	// after construction, so the samplers skip the cluster-wide lock —
	// the static fast path pays one bool check, mirroring the
	// simulator's zero-overhead contract.
	viewMu      sync.Mutex
	view        *core.ClusterView
	dynamicView bool             // churn scripted: view mutates at runtime
	probeSrc    *randdist.Source // stream for failure-re-sent probes
	churnSrc    *randdist.Source // stream for random churn picks
	lostProbes  []*jobRuntime    // probes waiting for a live pool node
	parkedJobs  []*jobRuntime    // jobs whose live pool was narrower than their task count

	stealAttempts  atomic.Int64
	stealContacts  atomic.Int64
	stealSuccesses atomic.Int64
	entriesStolen  atomic.Int64
	cancels        atomic.Int64
	tasksExecuted  atomic.Int64
	probesSent     atomic.Int64
	centralAssigns atomic.Int64

	nodeFailures    atomic.Int64
	nodeRecoveries  atomic.Int64
	tasksReexecuted atomic.Int64
	probesLost      atomic.Int64
	centralDeferred atomic.Int64
	workLostNanos   atomic.Int64

	// Multi-scheduler state (nil/zero unless Config.Schedulers is set; see
	// sched.go). msMu guards the live-scheduler list and the placements
	// parked while no scheduler was live; it is never held while acquiring
	// a scheduler's or the central scheduler's lock.
	mscheds   []*liveScheduler
	msMu      sync.Mutex
	msLive    *core.SchedulerSet
	msPending []centralItem

	placementConflicts  atomic.Int64
	conflictRetries     atomic.Int64
	snapshotRefreshes   atomic.Int64
	stalenessNanos      atomic.Int64
	schedulerFailures   atomic.Int64
	schedulerRecoveries atomic.Int64
	schedulerReassigned atomic.Int64

	// faults is the gray-failure plane (faults.go), nil unless Config.Faults
	// is set — the fault-free run pays one nil check per message, mirroring
	// the simulator's contract.
	faults *faultPlane
}

func newCluster(cfg policy.Config, pol policy.Policy) *cluster {
	c := &cluster{
		cfg:      cfg,
		pol:      pol,
		netDelay: time.Duration(cfg.NetworkDelay * float64(time.Second)),
		stop:     make(chan struct{}),
		started:  time.Now(),
	}
	slots := cfg.TotalSlots()
	c.part = core.NewPartition(slots, pol.ShortPartitionFraction())
	c.steal = core.StealPolicy{Cap: cfg.StealCap, Enabled: pol.Steal()}

	c.view = core.NewClusterView(c.part)
	if cfg.Heterogeneity != nil {
		c.view.SetSpeeds(cfg.Heterogeneity.Factors(slots, cfg.Seed+policy.SeedSpeeds))
	}
	if cfg.Churn != nil && len(cfg.Churn.Events) > 0 {
		// Before any goroutine can observe the view: membership tracking
		// flips the samplers off the static fast path, and dynamicView
		// turns the view lock on.
		c.view.EnableMembership()
		c.dynamicView = true
	}

	root := randdist.New(cfg.Seed)
	c.nodes = make([]*nodeMonitor, slots)
	for i := range c.nodes {
		c.nodes[i] = newNodeMonitor(i, c, root.Fork())
		c.nodes[i].speed = c.view.Speed(i)
	}
	c.dscheds = make([]*distScheduler, cfg.NumSchedulers)
	for i := range c.dscheds {
		c.dscheds[i] = &distScheduler{c: c, src: root.Fork()}
	}
	if pool := pol.CentralPool(); pool != policy.PoolNone {
		c.central = newCentralScheduler(c, pool.IDs(c.part))
	}
	if spec := cfg.Schedulers; spec != nil {
		if c.central != nil {
			c.central.claims = core.NewClaimTable(slots)
		}
		c.mscheds = make([]*liveScheduler, spec.Count)
		c.msLive = core.NewSchedulerSet(spec.Count)
		interval := time.Duration(spec.SnapshotInterval * float64(time.Second))
		for i := range c.mscheds {
			ls := &liveScheduler{id: int32(i), c: c, alive: true, snapAt: time.Now()}
			if c.central != nil {
				// Born the way it is refreshed: as a copy of the truth.
				ls.local = core.NewCentralQueue(nil)
				ls.snapVer = c.central.snapshotInto(ls.local)
			}
			c.mscheds[i] = ls
			go ls.run(interval)
		}
	}
	c.probeSrc = root.Fork()
	c.churnSrc = root.Fork()
	if cfg.Faults != nil {
		c.faults = newFaultPlane(*cfg.Faults, cfg.Seed)
	}
	for _, n := range c.nodes {
		go n.run()
	}
	if c.cfg.Churn != nil && len(c.cfg.Churn.Events) > 0 {
		go c.runChurn()
	}
	if c.faults != nil && len(c.faults.spec.Stragglers) > 0 {
		go c.runStragglers()
	}
	return c
}

func (c *cluster) stopAll() { close(c.stop) }

// nowSeconds is the cluster's clock for the centralized waiting-time queue.
func (c *cluster) nowSeconds() float64 { return time.Since(c.started).Seconds() }

// latency injects one network hop of delay, plus the fault plane's per-leg
// jitter when configured.
func (c *cluster) latency() {
	d := c.netDelay
	if c.faults != nil {
		d += c.faults.jitterDelay()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// submit routes one job per the policy's decision: to the centralized
// scheduler (whose placeTask delegates to the owning scheduler in the
// multi-scheduler model) or to a distributed scheduler. Jobs
// hash-partition over the live schedulers in the multi-scheduler model and
// round-robin otherwise.
func (c *cluster) submit(jr *jobRuntime, seq int) {
	dec := c.pol.Route(jr.info())
	if dec.Action == policy.ActionCentral {
		go c.central.schedule(jr)
		return
	}
	pick := seq
	if c.mscheds != nil {
		if owner := c.pickScheduler(jr.job.ID); owner >= 0 {
			pick = int(owner)
		}
	}
	ds := c.dscheds[pick%len(c.dscheds)]
	go ds.schedule(jr, dec.Pool)
}

// runChurn replays the scripted cluster transitions on the real-time
// clock, mirroring the simulator's typed churn events: events apply in
// time order (stable for scripted ties), random picks draw from the
// cluster's seeded churn stream.
func (c *cluster) runChurn() {
	events := append([]policy.ChurnEvent(nil), c.cfg.Churn.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		target := c.started.Add(time.Duration(ev.At * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			select {
			case <-time.After(d):
			case <-c.stop:
				return
			}
		}
		switch ev.Kind {
		case policy.ChurnFail:
			for _, id := range c.pickLive(ev) {
				c.failNode(id)
			}
		case policy.ChurnRecover:
			for _, id := range c.pickDead(ev) {
				c.recoverNode(id)
			}
		case policy.ChurnCentralDown:
			if c.central != nil {
				c.central.setDown()
			}
		case policy.ChurnCentralUp:
			if c.central != nil {
				c.central.setUp()
			}
		case policy.ChurnSchedFail:
			if c.mscheds != nil {
				c.failScheduler(ev.Node)
			}
		case policy.ChurnSchedRecover:
			if c.mscheds != nil {
				c.recoverScheduler(ev.Node)
			}
		}
	}
}

// pickLive resolves a fail event's targets: the explicit node, or Count
// random live nodes.
func (c *cluster) pickLive(ev policy.ChurnEvent) []int {
	if ev.Count == 0 {
		return []int{ev.Node}
	}
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.view.SampleAllInto(nil, c.churnSrc, ev.Count)
}

// pickDead resolves a recover event's targets: the explicit node, or Count
// random dead nodes.
func (c *cluster) pickDead(ev policy.ChurnEvent) []int {
	if ev.Count == 0 {
		return []int{ev.Node}
	}
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	dead := c.view.AppendDead(nil)
	k := ev.Count
	if k > len(dead) {
		k = len(dead)
	}
	picks := c.churnSrc.SampleWithoutReplacementInto(nil, len(dead), k)
	ids := make([]int, len(picks))
	for i, p := range picks {
		ids[i] = dead[p]
	}
	return ids
}

// failNode removes one node from the live cluster: membership, the central
// queue's server set, the node's queue (every entry re-routed), and the
// running task (killed mid-sleep; the executing goroutine re-routes it).
func (c *cluster) failNode(id int) {
	c.viewMu.Lock()
	if !c.view.Alive(id) {
		c.viewMu.Unlock()
		return
	}
	c.view.Fail(id)
	c.viewMu.Unlock()
	c.nodeFailures.Add(1)
	if c.central != nil {
		c.central.remove(id)
	}
	dropped := c.nodes[id].goDown()
	for _, e := range dropped {
		c.rerouteEntry(e)
	}
}

// recoverNode returns one node to the cluster, idle and empty, and
// releases work waiting on capacity.
func (c *cluster) recoverNode(id int) {
	c.viewMu.Lock()
	if c.view.Alive(id) {
		c.viewMu.Unlock()
		return
	}
	c.view.Recover(id)
	lost := c.lostProbes
	c.lostProbes = nil
	parked := c.parkedJobs
	c.parkedJobs = nil
	c.viewMu.Unlock()
	c.nodeRecoveries.Add(1)
	if c.central != nil && c.pol.CentralPool().Contains(c.part, id) {
		c.central.add(id)
	}
	c.nodes[id].comeUp()
	for _, jr := range lost {
		c.resendProbe(jr)
	}
	for _, jr := range parked {
		go c.dscheds[0].schedule(jr, c.pol.Route(jr.info()).Pool)
	}
}

// rerouteEntry re-places one queue entry dropped by a failed node: probes
// are re-sent to a live pool node, centrally placed tasks re-assigned.
// (Queued tasks had not started, so they re-assign without counting as
// re-executed; the killed running task is accounted by its executor.) A
// speculative duplicate is simply dropped as wasted — its original runs
// (or re-serves) independently.
func (c *cluster) rerouteEntry(e entry) {
	if e.spec {
		c.faults.specWasted.Add(1)
		return
	}
	if e.probe {
		c.probesLost.Add(1)
		c.resendProbe(e.job)
		return
	}
	c.central.placeTask(e.job, e.dur, e.handle)
}

// resendProbe sends one replacement probe for the job to a live node of
// its decision pool, or parks the job until the next recovery when the
// pool has no live member.
func (c *cluster) resendProbe(jr *jobRuntime) {
	dec := c.pol.Route(jr.info())
	c.viewMu.Lock()
	ids := dec.Pool.SampleInto(nil, c.view, c.probeSrc, 1)
	if len(ids) == 0 {
		c.lostProbes = append(c.lostProbes, jr)
		c.viewMu.Unlock()
		return
	}
	c.viewMu.Unlock()
	c.probesSent.Add(1)
	go c.deliverProbe(c.nodes[ids[0]], jr)
}

// distScheduler is one of the paper's per-job distributed schedulers
// (grouped: each scheduler instance handles many jobs over time, like the
// paper's 10 prototype schedulers handling 300 jobs each).
type distScheduler struct {
	c   *cluster
	mu  sync.Mutex // guards src
	src *randdist.Source
}

// schedule places ProbeRatio*t probes for the job via batch sampling
// (§3.5) over the decision's candidate pool — its live members, under
// churn. A pool currently narrower than the job's task count parks the
// job until a recovery widens it (batch sampling needs one live candidate
// per task).
func (d *distScheduler) schedule(jr *jobRuntime, pool policy.Pool) {
	c := d.c
	d.mu.Lock()
	if c.dynamicView {
		c.viewMu.Lock()
	}
	poolSize := pool.Size(c.view)
	if c.dynamicView && poolSize < jr.job.NumTasks() {
		c.parkedJobs = append(c.parkedJobs, jr)
		c.viewMu.Unlock()
		d.mu.Unlock()
		return
	}
	k := core.NumProbes(jr.job.NumTasks(), c.cfg.ProbeRatio, poolSize)
	ids := pool.SampleInto(nil, c.view, d.src, k)
	if c.dynamicView {
		c.viewMu.Unlock()
	}
	d.mu.Unlock()
	c.probesSent.Add(int64(len(ids)))
	for _, id := range ids {
		go c.deliverProbe(c.nodes[id], jr)
	}
}

// centralItem is one parked central placement.
type centralItem struct {
	jr     *jobRuntime
	dur    time.Duration
	handle int
}

// centralScheduler runs the §3.7 algorithm over its node pool, with the
// dynamic-cluster extensions: scripted outages park placements in a
// backlog, and failed servers leave the waiting-time queue until they
// recover.
type centralScheduler struct {
	c  *cluster
	mu sync.Mutex
	q  *core.CentralQueue

	down      bool
	downSince time.Time
	outage    time.Duration
	backlog   []centralItem

	// claims is the multi-scheduler commit protocol's claim table
	// (sched.go); nil on a single-scheduler run.
	claims *core.ClaimTable
}

func newCentralScheduler(c *cluster, nodeIDs []int) *centralScheduler {
	return &centralScheduler{c: c, q: core.NewCentralQueue(nodeIDs)}
}

// schedule places every task of a job on the least-waiting servers. The
// task index doubles as the completion handle speculation dedups on.
func (s *centralScheduler) schedule(jr *jobRuntime) {
	for i := 0; i < jr.job.NumTasks(); i++ {
		dur := time.Duration(jr.job.Durations[i] * float64(time.Second))
		s.placeTask(jr, dur, i)
	}
}

// placeTask assigns one task, or parks it while the scheduler is down or
// has no live servers. In the multi-scheduler model the placement is
// delegated to the job's owning scheduler's claim/commit path instead.
func (s *centralScheduler) placeTask(jr *jobRuntime, dur time.Duration, handle int) {
	c := s.c
	if c.mscheds != nil {
		c.placeCentralMS(jr, dur, handle)
		return
	}
	s.mu.Lock()
	if s.down || s.q.Len() == 0 {
		s.backlog = append(s.backlog, centralItem{jr: jr, dur: dur, handle: handle})
		s.mu.Unlock()
		c.centralDeferred.Add(1)
		return
	}
	nodeID, _ := s.q.Assign(c.nowSeconds(), jr.est)
	s.mu.Unlock()
	c.centralAssigns.Add(1)
	go c.deliverTask(c.nodes[nodeID], entry{job: jr, dur: dur, handle: handle}, false)
}

// parkIfUnavailable parks one multi-scheduler placement in the backlog if
// the central scheduler is down or has no live server, reporting whether
// it did. The backlog drains through placeTask on recovery, which routes
// back through the owning scheduler.
func (s *centralScheduler) parkIfUnavailable(jr *jobRuntime, dur time.Duration, handle int) bool {
	s.mu.Lock()
	if !s.down && s.q.Len() > 0 {
		s.mu.Unlock()
		return false
	}
	s.backlog = append(s.backlog, centralItem{jr: jr, dur: dur, handle: handle})
	s.mu.Unlock()
	s.c.centralDeferred.Add(1)
	return true
}

// snapshotInto copies the authoritative queue into a scheduler's mirror and
// returns the claim version the snapshot reflects.
func (s *centralScheduler) snapshotInto(local *core.CentralQueue) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	local.SyncFrom(s.q)
	return s.claims.Version()
}

// tryCommit is the multi-scheduler commit: scheduler `by`, holding a
// snapshot taken at claim version sinceVer, claims nodeID
// (core.ClaimTable.Claim, the simulator's rule) and publishes the
// placement's load into the authoritative queue. It fails — a placement
// conflict — on a lost claim, or when the node has left the queue (failed)
// unseen.
func (s *centralScheduler) tryCommit(nodeID int, by int32, sinceVer uint64, est float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.c.nowSeconds()
	if s.q.Waiting(nodeID, now) < 0 || !s.claims.Claim(nodeID, by, sinceVer) {
		return false
	}
	s.q.AddLoad(nodeID, now, est)
	return true
}

// drainLocked empties the backlog for re-placement; caller holds s.mu.
func (s *centralScheduler) drainLocked() []centralItem {
	pending := s.backlog
	s.backlog = nil
	return pending
}

// setDown starts a scripted outage.
func (s *centralScheduler) setDown() {
	s.mu.Lock()
	if !s.down {
		s.down = true
		s.downSince = time.Now()
	}
	s.mu.Unlock()
}

// setUp ends a scripted outage and re-places the backlog in arrival order.
func (s *centralScheduler) setUp() {
	s.mu.Lock()
	var pending []centralItem
	if s.down {
		s.down = false
		s.outage += time.Since(s.downSince)
		pending = s.drainLocked()
	}
	s.mu.Unlock()
	for _, it := range pending {
		s.placeTask(it.jr, it.dur, it.handle)
	}
}

// isDown reports whether a scripted outage is in progress.
func (s *centralScheduler) isDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// outageTotal returns the accumulated scripted downtime, including a still
// open outage.
func (s *centralScheduler) outageTotal() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.outage
	if s.down {
		total += time.Since(s.downSince)
	}
	return total
}

// remove drops a failed server from the waiting-time queue.
func (s *centralScheduler) remove(nodeID int) {
	s.mu.Lock()
	s.q.Remove(nodeID)
	s.mu.Unlock()
}

// add returns a recovered server to the queue (idle, zero waiting) and
// re-places any backlog that was parked for lack of live servers.
func (s *centralScheduler) add(nodeID int) {
	s.mu.Lock()
	s.q.Add(nodeID, s.c.nowSeconds())
	var pending []centralItem
	if !s.down {
		pending = s.drainLocked()
	}
	s.mu.Unlock()
	for _, it := range pending {
		s.placeTask(it.jr, it.dur, it.handle)
	}
}

// taskStarted relays node-monitor feedback to the waiting-time queue; the
// monitor reports the launched task's wall duration (speed-scaled on a
// heterogeneous cluster) so the running term tracks the real task (§3.7).
func (s *centralScheduler) taskStarted(nodeID int, est float64, dur time.Duration) {
	s.mu.Lock()
	s.q.TaskStarted(nodeID, s.c.nowSeconds(), est, dur.Seconds())
	s.mu.Unlock()
}

// taskFinished relays completion feedback.
func (s *centralScheduler) taskFinished(nodeID int) {
	s.mu.Lock()
	s.q.TaskFinished(nodeID, s.c.nowSeconds())
	s.mu.Unlock()
}

// lostTask is one task handed back after a node failure: its duration and
// the task-instance handle it keeps across re-serves.
type lostTask struct {
	dur    time.Duration
	handle int
}

// jobRuntime tracks one live job: task handout for batch sampling and
// completion accounting.
type jobRuntime struct {
	job  *workload.Job
	long bool
	est  float64

	mu        sync.Mutex
	next      int
	done      int
	lost      []lostTask // tasks lost to node failures, re-served first
	submitted time.Time
	onDone    func(runtime time.Duration)

	// Speculation state (fault plane): completed dedups per-task-instance
	// completions so a duplicate and its original count once between them;
	// specThresh is the delay after which a running task is duplicated.
	// Nil/zero unless the run speculates.
	completed  []bool
	specThresh time.Duration
}

// info is the job as the policy's Route sees it.
func (j *jobRuntime) info() policy.JobInfo {
	return policy.JobInfo{ID: j.job.ID, Tasks: j.job.NumTasks(), Estimate: j.est, Long: j.long}
}

func newJobRuntime(job *workload.Job, long bool, submitted time.Time) *jobRuntime {
	return &jobRuntime{
		job:       job,
		long:      long,
		est:       job.AvgTaskDuration(),
		submitted: submitted,
	}
}

// getTask hands the next unassigned task to a requesting node monitor — a
// task lost to a failure first, else the next fresh one — or reports that
// all tasks are taken (the probe is cancelled). The handle identifies the
// task instance across failures and speculative duplication.
func (j *jobRuntime) getTask() (time.Duration, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.lost); n > 0 {
		lt := j.lost[n-1]
		j.lost = j.lost[:n-1]
		return lt.dur, lt.handle, true
	}
	if j.next >= j.job.NumTasks() {
		return 0, 0, false
	}
	d := j.job.Durations[j.next]
	h := j.next
	j.next++
	return time.Duration(d * float64(time.Second)), h, true
}

// pushLost hands a task back after the node running (or about to run) it
// failed; a later probe re-fetches it.
func (j *jobRuntime) pushLost(d time.Duration, handle int) {
	j.mu.Lock()
	j.lost = append(j.lost, lostTask{dur: d, handle: handle})
	j.mu.Unlock()
}

// taskDone accounts one finished task; the last completion fires onDone.
// Under speculation the completion bitmap makes the first finisher of a
// task instance the winner — a false return marks a loser (duplicate, or
// an original outraced by its duplicate) whose completion counts for
// nothing.
func (j *jobRuntime) taskDone(handle int) bool {
	j.mu.Lock()
	if j.completed != nil {
		if j.completed[handle] {
			j.mu.Unlock()
			return false
		}
		j.completed[handle] = true
	}
	j.done++
	finished := j.done == j.job.NumTasks()
	cb := j.onDone
	j.mu.Unlock()
	if finished && cb != nil {
		cb(time.Since(j.submitted))
	}
	return true
}

// isCompleted reports whether the task instance already finished (always
// false outside speculation, which alone allocates the bitmap).
func (j *jobRuntime) isCompleted(handle int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed != nil && j.completed[handle]
}
