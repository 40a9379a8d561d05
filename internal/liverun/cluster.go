package liverun

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/randdist"
	"repro/internal/workload"
)

// cluster wires the node monitors and the centralized scheduler together.
// Like the simulator it holds no scheduler object per job: scheduling
// decisions are free (§4.1), probes are sampled from probeSrc under mu, and
// in the multi-scheduler model a job's owner is msLive's hash of its id.
type cluster struct {
	cfg      policy.Config
	pol      policy.Policy
	part     core.Partition
	steal    core.StealPolicy
	netDelay time.Duration
	nodes    []*nodeMonitor
	central  *centralScheduler
	stop     chan struct{}
	started  time.Time

	// mu is the cluster lock: the view (on a churn run it mutates — the
	// simulator's single-threaded event loop gets this for free), probeSrc,
	// churnSrc, the central outage and queue, msLive, the jobs' owners, the
	// waitlist and the run's progress. Lock order: node and live-scheduler
	// locks before mu; faultPlane.mu and resMu after it. "Check availability
	// → park" and "recover → release" are each one critical section, and
	// nothing is resumed while mu is held.
	mu       sync.Mutex
	view     *core.ClusterView
	probeSrc *randdist.Source       // stream for every probe sample
	churnSrc *randdist.Source       // stream for random churn picks
	waits    policy.Waitlist[entry] // a job, or one task (dur, handle) for the central kinds

	// A scripted central outage, kept whatever the policy (the simulator's
	// centralDown): it marks jobs DuringOutage and counts
	// CentralOutageSeconds even when no central queue exists.
	centralDown      bool
	centralDownSince time.Time

	// Progress, under mu. Parked work is released only by churn-script
	// events, so once scriptDone is set anything parked can never run: the
	// run is over when every job is done or has work parked (settleLocked).
	scriptDone bool
	jobsDone   int
	totalJobs  int
	over       chan struct{} // closed once by settleLocked
	err        error         // the deadlock diagnosis, set before over closes

	// Multi-scheduler state (nil unless Config.Schedulers is set; see
	// sched.go). Under mu: msLive, every job's owner, and behind — the jobs
	// queued on each node whose slot a parked probe round trip holds.
	mscheds []*liveScheduler
	msLive  *core.SchedulerSet
	behind  map[int][]*jobRuntime

	// faults is the gray-failure plane (faults.go), nil unless Config.Faults
	// is set — the fault-free run pays one nil check per message, mirroring
	// the simulator's contract.
	faults *faultPlane

	// res is the Report the run returns; every counter is incremented
	// straight into it under resMu, a leaf lock. Run returns a copy taken
	// under resMu: speculative losers and late cancels may still count after
	// the last job completes.
	resMu sync.Mutex
	res   policy.Report
}

func newCluster(cfg policy.Config, pol policy.Policy, jobs int) *cluster {
	c := &cluster{
		cfg:       cfg,
		pol:       pol,
		netDelay:  time.Duration(cfg.NetworkDelay * float64(time.Second)),
		stop:      make(chan struct{}),
		started:   time.Now(),
		totalJobs: jobs,
		over:      make(chan struct{}),
		res:       policy.Report{Engine: "live", Policy: pol.String(), Config: cfg},
	}
	c.part = core.NewPartition(cfg.NumNodes, pol.ShortPartitionFraction())
	c.steal = core.StealPolicy{Cap: cfg.StealCap, Enabled: pol.Steal()}

	c.view = core.NewClusterView(c.part)
	if cfg.Heterogeneity != nil {
		c.view.SetSpeeds(cfg.Heterogeneity.Factors(cfg.NumNodes, cfg.Seed+policy.SeedSpeeds))
	}
	churn := cfg.Churn != nil && len(cfg.Churn.Events) > 0
	if churn {
		// Before any goroutine can observe the view: membership tracking
		// flips the samplers off the static fast path.
		c.view.EnableMembership()
	}
	c.scriptDone = !churn

	root := randdist.New(cfg.Seed)
	c.nodes = make([]*nodeMonitor, cfg.NumNodes)
	for i := range c.nodes {
		c.nodes[i] = newNodeMonitor(i, c, root.Fork())
		c.nodes[i].speed = c.view.Speed(i)
	}
	if pool := pol.CentralPool(); pool != policy.PoolNone {
		c.central = &centralScheduler{c: c, q: core.NewCentralQueue(pool.IDs(c.part))}
	}
	if spec := cfg.Schedulers; spec != nil {
		if c.central != nil {
			c.central.claims = core.NewClaimTable(cfg.NumNodes)
		}
		c.mscheds = make([]*liveScheduler, spec.Count)
		c.msLive = core.NewSchedulerSet(spec.Count)
		c.behind = map[int][]*jobRuntime{}
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
		c.res.MessagesDropped = &policy.MessageDrops{}
	}
	for _, n := range c.nodes {
		go n.run()
	}
	if churn {
		go c.runChurn()
	}
	if c.faults != nil && len(c.faults.spec.Stragglers) > 0 {
		go c.runStragglers()
	}
	c.mu.Lock()
	c.settleLocked() // a trace with no jobs is over before it starts
	c.mu.Unlock()
	return c
}

func (c *cluster) stopAll() { close(c.stop) }

// nowSeconds is the cluster's clock for the centralized waiting-time queue.
func (c *cluster) nowSeconds() float64 { return time.Since(c.started).Seconds() }

// count adds n to one of the run's Report counters.
func (c *cluster) count(counter *int64, n int64) {
	c.resMu.Lock()
	*counter += n
	c.resMu.Unlock()
}

// countTime adds d, in seconds, to one of the run's Report time totals.
func (c *cluster) countTime(total *float64, d time.Duration) {
	c.resMu.Lock()
	*total += d.Seconds()
	c.resMu.Unlock()
}

// report is the run's Report: a copy of the counters taken under resMu,
// with the jobs, the makespan and an outage still open at the end.
func (c *cluster) report(jobs []policy.JobReport, makespan time.Duration, lastSubmit float64) *policy.Report {
	c.mu.Lock()
	c.resMu.Lock()
	res := c.res
	if res.MessagesDropped != nil {
		drops := *res.MessagesDropped
		res.MessagesDropped = &drops
	}
	c.resMu.Unlock()
	if c.centralDown {
		res.CentralOutageSeconds += time.Since(c.centralDownSince).Seconds()
	}
	c.mu.Unlock()
	res.Jobs = jobs
	res.Makespan = makespan.Seconds()
	res.LastSubmit = lastSubmit
	return &res
}

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

// route executes the policy's placement decision for a job, at submission
// and when a parked job is released: the simulator's routeJob and
// centralJob, parking what they park where they park it. The job hashes to
// its owner first in the multi-scheduler model; a central job waits whole
// while the central scheduler is unavailable; a probed job gets ProbeRatio·t
// probes batch-sampled (§3.5) over its pool's live members, which must
// number at least its task count.
func (c *cluster) route(jr *jobRuntime) {
	dec := c.pol.Route(jr.info())
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mscheds != nil {
		owner := c.msLive.Owner(jr.job.ID)
		if owner < 0 {
			c.parkLocked(policy.WaitSchedJob, entry{job: jr})
			return
		}
		jr.owner = owner
	}
	if dec.Action == policy.ActionCentral {
		if c.centralUnavailableLocked() {
			c.parkLocked(policy.WaitCentral, entry{job: jr, handle: -1})
			return
		}
		go c.central.schedule(jr)
		return
	}
	poolSize := dec.Pool.Size(c.view)
	if c.view.Dynamic() && poolSize < jr.job.NumTasks() {
		c.parkLocked(policy.WaitPoolWidth, entry{job: jr})
		return
	}
	k := core.NumProbes(jr.job.NumTasks(), c.cfg.ProbeRatio, poolSize)
	ids := dec.Pool.SampleInto(nil, c.view, c.probeSrc, k)
	c.count(&c.res.ProbesSent, int64(len(ids)))
	for _, id := range ids {
		go c.deliverProbe(c.nodes[id], jr)
	}
}

// parkLocked makes one item wait under kind k. Report.CentralDeferred counts
// exactly the central placements that had to. Caller holds c.mu.
func (c *cluster) parkLocked(k policy.WaitKind, e entry) {
	if k == policy.WaitCentral {
		c.count(&c.res.CentralDeferred, 1)
	}
	c.waits[k] = append(c.waits[k], e)
	c.settleLocked()
}

// releaseLocked takes off the waitlist everything the recovery unblocks, by
// policy.WaitRules; the caller resumes it once c.mu is released.
func (c *cluster) releaseLocked(by policy.Recovery) (out policy.Waitlist[entry]) {
	for k := range c.waits {
		if !by.Releases(policy.WaitKind(k)) || len(c.waits[k]) == 0 || policy.WaitRules[k].HeldByCentral && c.centralUnavailableLocked() {
			continue
		}
		out[k], c.waits[k] = c.waits[k], nil
	}
	return out
}

// resumes binds each kind to the entry point its items re-enter through,
// the simulator's table kind for kind.
var resumes = [policy.NumWaitKinds]func(*cluster, entry){
	policy.WaitLostProbe:  (*cluster).resumeProbe,
	policy.WaitPoolWidth:  (*cluster).resumeJob,
	policy.WaitCentral:    (*cluster).resumeCentral,
	policy.WaitSchedJob:   (*cluster).resumeJob,
	policy.WaitSchedTask:  (*cluster).resumeCentral,
	policy.WaitSchedProbe: (*cluster).resumeProbe,
	policy.WaitSchedReply: (*cluster).resumeReply,
}

// resume re-enters released items through the entry point that parked
// them, kind by kind in release order, FIFO within a kind; an item that has
// to wait again parks afresh. Caller must not hold c.mu.
func (c *cluster) resume(released policy.Waitlist[entry]) {
	for k, items := range released {
		for _, e := range items {
			resumes[k](c, e)
		}
	}
}

func (c *cluster) resumeProbe(e entry) { c.resendProbe(e.job) }
func (c *cluster) resumeJob(e entry)   { c.route(e.job) }

// resumeReply lets the node holding the round trip ask again (ownerAnswers).
func (c *cluster) resumeReply(e entry) { close(e.ready) }

func (c *cluster) resumeCentral(e entry) {
	if e.handle < 0 {
		c.route(e.job)
		return
	}
	c.central.placeTask(e.job, e.dur, e.handle)
}

// jobDone records one job's completion.
func (c *cluster) jobDone(jr *jobRuntime) {
	c.mu.Lock()
	jr.finished = true
	c.jobsDone++
	c.settleLocked()
	c.mu.Unlock()
}

// settleLocked closes c.over once the run can change no more: every job is
// done, or the churn script is over and every unfinished job has work
// parked, or queued behind a slot parked work holds — which nothing is left
// to release, so the run ends in the simulator's deadlock diagnosis instead
// of a hang. Caller holds c.mu.
func (c *cluster) settleLocked() {
	select {
	case <-c.over:
		return
	default:
	}
	if c.jobsDone < c.totalJobs {
		if !c.scriptDone {
			return
		}
		stuck := map[*jobRuntime]bool{}
		for _, items := range c.waits {
			for _, e := range items {
				if !e.job.finished {
					stuck[e.job] = true
				}
			}
		}
		for _, jobs := range c.behind {
			for _, j := range jobs {
				if !j.finished {
					stuck[j] = true
				}
			}
		}
		if c.jobsDone+len(stuck) < c.totalJobs {
			return
		}
		c.err = c.waits.Deadlock("liverun", c.jobsDone, c.totalJobs)
	}
	close(c.over)
}

// runChurn replays the scripted cluster transitions on the real-time
// clock, mirroring the simulator's typed churn events: events apply in
// time order (stable for scripted ties), random picks draw from the
// cluster's seeded churn stream. After the last one nothing parked can be
// released any more.
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
			c.centralOutageStart()
		case policy.ChurnCentralUp:
			c.centralOutageEnd()
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
	c.mu.Lock()
	c.scriptDone = true
	c.settleLocked()
	c.mu.Unlock()
}

// pickLive resolves a fail event's targets: the explicit node, or Count
// random live nodes.
func (c *cluster) pickLive(ev policy.ChurnEvent) []int {
	if ev.Count == 0 {
		return []int{ev.Node}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.SampleAllInto(nil, c.churnSrc, ev.Count)
}

// pickDead resolves a recover event's targets: the explicit node, or Count
// random dead nodes.
func (c *cluster) pickDead(ev policy.ChurnEvent) []int {
	if ev.Count == 0 {
		return []int{ev.Node}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.mu.Lock()
	if !c.view.Alive(id) {
		c.mu.Unlock()
		return
	}
	c.view.Fail(id)
	if c.central != nil {
		c.central.q.Remove(id)
	}
	c.mu.Unlock()
	c.count(&c.res.NodeFailures, 1)
	dropped := c.nodes[id].goDown()
	for _, e := range dropped {
		c.rerouteEntry(e)
	}
}

// recoverNode returns one node to the cluster, idle and empty, and
// releases work waiting on capacity.
func (c *cluster) recoverNode(id int) {
	c.mu.Lock()
	if c.view.Alive(id) {
		c.mu.Unlock()
		return
	}
	c.view.Recover(id)
	if c.central != nil && c.pol.CentralPool().Contains(c.part, id) {
		c.central.q.Add(id, c.nowSeconds())
	}
	released := c.releaseLocked(policy.NodeRecovered)
	c.mu.Unlock()
	c.count(&c.res.NodeRecoveries, 1)
	c.nodes[id].comeUp()
	c.resume(released)
}

// rerouteEntry re-places one queue entry dropped by a failed node: probes
// are re-sent to a live pool node, centrally placed tasks re-assigned.
// (Queued tasks had not started, so they re-assign without counting as
// re-executed; the killed running task is accounted by its executor.) A
// speculative duplicate is simply dropped as wasted — its original runs
// (or re-serves) independently.
func (c *cluster) rerouteEntry(e entry) {
	if e.spec {
		c.count(&c.res.SpeculativeWasted, 1)
		return
	}
	if e.probe {
		c.count(&c.res.ProbesLost, 1)
		c.resendProbe(e.job)
		return
	}
	c.central.placeTask(e.job, e.dur, e.handle)
}

// resendProbe sends one replacement probe for the job to a live node of
// its decision pool, or parks the job until the next recovery when the
// pool has no live member. In the multi-scheduler model the re-send needs a
// live owner to answer the eventual task request, and with none it waits
// for a scheduler recovery — the simulator's resendProbe.
func (c *cluster) resendProbe(jr *jobRuntime) {
	dec := c.pol.Route(jr.info())
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mscheds != nil {
		if _, ok := c.ownerLocked(jr); !ok {
			c.parkLocked(policy.WaitSchedProbe, entry{job: jr})
			return
		}
	}
	ids := dec.Pool.SampleInto(nil, c.view, c.probeSrc, 1)
	if len(ids) == 0 {
		c.parkLocked(policy.WaitLostProbe, entry{job: jr})
		return
	}
	c.count(&c.res.ProbesSent, 1)
	go c.deliverProbe(c.nodes[ids[0]], jr)
}

// centralScheduler runs the §3.7 algorithm over its node pool, with the
// dynamic-cluster extensions: placements wait on the waitlist through a
// scripted outage, and failed servers leave the waiting-time queue until
// they recover. Its state is under the cluster lock.
type centralScheduler struct {
	c *cluster
	q *core.CentralQueue

	// claims is the multi-scheduler commit protocol's claim table
	// (sched.go); nil on a single-scheduler run.
	claims *core.ClaimTable
}

// schedule places every task of a job on the least-waiting servers. The
// task index doubles as the completion handle speculation dedups on.
func (s *centralScheduler) schedule(jr *jobRuntime) {
	for i := 0; i < jr.job.NumTasks(); i++ {
		dur := time.Duration(jr.job.Durations[i] * float64(time.Second))
		s.placeTask(jr, dur, i)
	}
}

// centralUnavailableLocked reports whether central placement must wait: the
// scheduler is scripted down, or churn has removed its every live server.
// Caller holds c.mu, and the policy has a central queue.
func (c *cluster) centralUnavailableLocked() bool { return c.centralDown || c.central.q.Len() == 0 }

// placeTask assigns one task, or parks it while the scheduler is
// unavailable. In the multi-scheduler model the placement is delegated to
// the job's owning scheduler's claim/commit path instead, re-hashing a dead
// owner first and parking while no scheduler is live — the simulator's
// centralTask, rule for rule.
func (s *centralScheduler) placeTask(jr *jobRuntime, dur time.Duration, handle int) {
	c := s.c
	e := entry{job: jr, dur: dur, handle: handle}
	c.mu.Lock()
	if c.centralUnavailableLocked() {
		c.parkLocked(policy.WaitCentral, e)
		c.mu.Unlock()
		return
	}
	if c.mscheds != nil {
		owner, ok := c.ownerLocked(jr)
		if !ok {
			c.parkLocked(policy.WaitSchedTask, e)
		}
		c.mu.Unlock()
		if ok {
			c.mscheds[owner].placeTask(jr, dur, handle)
		}
		return
	}
	nodeID, _ := s.q.Assign(c.nowSeconds(), jr.est)
	c.mu.Unlock()
	c.count(&c.res.CentralAssigns, 1)
	go c.deliverTask(c.nodes[nodeID], entry{job: jr, dur: dur, handle: handle}, false)
}

// snapshotInto copies the authoritative queue into a scheduler's mirror and
// returns the claim version the snapshot reflects.
func (s *centralScheduler) snapshotInto(local *core.CentralQueue) uint64 {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
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
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	now := s.c.nowSeconds()
	if s.q.Waiting(nodeID, now) < 0 || !s.claims.Claim(nodeID, by, sinceVer) {
		return false
	}
	s.q.AddLoad(nodeID, now, est)
	return true
}

// centralOutageStart begins a scripted central-scheduler outage.
func (c *cluster) centralOutageStart() {
	c.mu.Lock()
	if !c.centralDown {
		c.centralDown = true
		c.centralDownSince = time.Now()
	}
	c.mu.Unlock()
}

// centralOutageEnd closes a scripted outage, accounts its duration, and
// re-places the placements that waited for it.
func (c *cluster) centralOutageEnd() {
	c.mu.Lock()
	if !c.centralDown {
		c.mu.Unlock()
		return
	}
	c.centralDown = false
	c.countTime(&c.res.CentralOutageSeconds, time.Since(c.centralDownSince))
	released := c.releaseLocked(policy.CentralRestored)
	c.mu.Unlock()
	c.resume(released)
}

// isCentralDown reports whether a scripted outage is in progress.
func (c *cluster) isCentralDown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.centralDown
}

// taskStarted relays node-monitor feedback to the waiting-time queue; the
// monitor reports the launched task's wall duration (speed-scaled on a
// heterogeneous cluster) so the running term tracks the real task (§3.7).
func (s *centralScheduler) taskStarted(nodeID int, est float64, dur time.Duration) {
	s.c.mu.Lock()
	s.q.TaskStarted(nodeID, s.c.nowSeconds(), est, dur.Seconds())
	s.c.mu.Unlock()
}

// taskFinished relays completion feedback.
func (s *centralScheduler) taskFinished(nodeID int) {
	s.c.mu.Lock()
	s.q.TaskFinished(nodeID, s.c.nowSeconds())
	s.c.mu.Unlock()
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

	// Under cluster.mu, not mu: the job completed; its owning scheduler in
	// the multi-scheduler model, recorded at routing (route, ownerLocked).
	finished bool
	owner    int32
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
