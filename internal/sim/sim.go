// Package sim implements the trace-driven discrete-event cluster simulator
// used for the paper's evaluation (§4.1): single-slot FIFO nodes, 0.5 ms
// network delay, Sparrow batch sampling, Hawk's hybrid scheduling with
// partitioning and randomized stealing, a fully centralized baseline, and
// the split-cluster baseline — plus the three Hawk ablations of Figure 7.
//
// The scheduler itself is not hard-coded here: the engine executes whatever
// policy.Policy the run configuration names, so registered policies (see
// repro/hawk) run unmodified on this engine and on the live prototype in
// internal/liverun.
//
// # Data layout
//
// The engine's hot state is data-oriented: nodes live in one dense []node
// arena indexed by node id, per-job state lives in one dense []jobState
// arena, and queue entries and events refer to jobs by int32 arena index
// instead of by pointer. Trace submission is lazy — each submit event
// chains the next — so the event queue's working set is bounded by
// in-flight messages and running tasks, not by the trace length. See
// docs/ARCHITECTURE.md, "The data-oriented simulator core".
//
// # Streaming
//
// Every run pulls its workload from a workload.Source, one job per submit
// event; Run is RunSource over the source a Trace already is. The jobs
// arena doubles as a free list: a slot is recycled — and the decoded Job
// handed back to a source that pools them — as soon as its last probe is
// accounted for and its report has been emitted, so what the engine holds
// is O(in-flight jobs + cluster), independent of trace length
// (TestStreamedRunHeapStaysBounded pins this for a source that holds
// nothing either). Report memory streams too: Config.JobSink emits each
// report at completion and Config.DiscardJobReports replaces the Jobs
// slice with bounded reservoir aggregates.
//
// Every run must be a pure function of (workload, config, seed) — the
// golden report tests depend on it — so hawklint's determinism analyzer
// guards the whole package:
//
//hawk:deterministic
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/policy"
	"repro/internal/randdist"
	"repro/internal/workload"
)

// streamArenaHint caps the initial jobs-arena capacity: the arena grows to
// the peak in-flight job count on demand, so the hint only avoids early
// growth copies without committing trace-sized memory.
const streamArenaHint = 1024

// engineBackend selects the event-queue implementation behind every run.
// The ladder timeline dispatches the byte-identical event order at
// amortized O(1) instead of the heap's O(log n) — the golden suite pins
// the equivalence, and TestBackendsProduceIdenticalReports re-checks it
// directly by flipping this back to the heap. A var rather than a const
// only so tests can do that flip.
var engineBackend = eventq.BackendLadder

// jobState tracks one job while it runs. States live in the simulation's
// flat jobs arena and are referenced everywhere by int32 index (a recycled
// free-list slot); the struct itself caches exactly what the hot paths
// read — the duration slice for task hand-out and the classification bits —
// so serving a probe reply touches one arena slot and one duration.
type jobState struct {
	durations []float64 // the job's per-task durations (shares the decoded Job's backing array)
	// lost holds task indices handed out to a node that failed before the
	// task completed; nextTask re-serves them before fresh tasks. Nil on a
	// churn-free run.
	lost     []int32
	estimate float64
	// submit and id cache the Job fields the report needs, so completion
	// reporting (and the multi-scheduler owner hash) never touches the
	// decoded Job — which goes back to a pooling source when the slot frees.
	submit float64
	id     int
	// ref is the decoded job backing durations; handed back to a recycling
	// source when the slot frees.
	ref *workload.Job
	// probes counts outstanding probe chains for the job: incremented per
	// probe sent (plus one per failure-recovered task awaiting a re-sent
	// probe), decremented when a probe is consumed at probeReply. A slot
	// can be recycled only once no probe can ever reference it again.
	probes   int32
	next     int32 // next task index to hand out (probe-scheduled jobs)
	finished int32
	// specThresh is the job's speculative re-execution delay threshold (the
	// configured percentile of its task durations), computed once at submit;
	// 0 unless the fault plane's speculation is on.
	specThresh float64
	long       bool
	trueLong   bool
	// outage marks jobs submitted while the centralized scheduler was
	// scripted down (reported as JobReport.DuringOutage).
	outage bool
	// owner is the distributed scheduler the job hash-partitioned to
	// (multi-scheduler model only; 0 otherwise). Re-hashed lazily when the
	// owner fails.
	owner uint8
}

// info is the job as the policy's Route sees it.
//
//hawk:hotpath
func (js *jobState) info() policy.JobInfo {
	return policy.JobInfo{ID: js.id, Tasks: len(js.durations), Estimate: js.estimate, Long: js.long}
}

// nextTask hands out the next unassigned task index — a task lost to a
// node failure first, else the next fresh one — or reports that all tasks
// are placed (the probe is cancelled).
//
//hawk:hotpath
func (js *jobState) nextTask() (int32, bool) {
	if n := len(js.lost); n > 0 {
		t := js.lost[n-1]
		js.lost = js.lost[:n-1]
		return t, true
	}
	if int(js.next) >= len(js.durations) {
		return -1, false
	}
	t := js.next
	js.next++
	return t, true
}

type simulation struct {
	cfg        policy.Config
	pol        policy.Policy
	eng        *eventq.Engine[simEvent]
	part       core.Partition
	classifier core.Classifier
	estimator  *core.Estimator
	steal      core.StealPolicy
	src        *randdist.Source
	central    *core.CentralQueue
	res        *policy.Report

	// source streams the workload in submission order; meta is its
	// up-front metadata (exact job count, task bounds, defaults).
	source workload.Source
	meta   workload.Meta
	// recycler hands finished jobs back to a source that pools them; nil
	// for one that does not (a trace's jobs stay its own).
	recycler workload.Recycler
	// pending is the next decoded job, waiting for its submit event to
	// fire — the stream stays exactly one job ahead of simulated time.
	pending *workload.Job
	// freeSlots lists recyclable jobs-arena indices.
	freeSlots []int32
	// failErr aborts the run: a mid-stream source failure or an infeasible
	// job stops the submit chain and surfaces from run.
	failErr error
	// sinkErr is the first error returned by cfg.JobSink, reported after
	// the run drains.
	sinkErr error
	// perJobFeas marks that the metadata feasibility check was
	// inconclusive (conservative MaxTasks bound failed), so the rule is
	// applied to each job as it is pulled, with feasMargin — the scenario's
	// worst-case concurrent failures — taken off every probe pool.
	perJobFeas bool
	feasMargin int

	// nodes is the node arena: one dense value slice, index = node id.
	nodes []node
	// jobs is the job-state arena, indexed by the int32 jidx carried in
	// events and queue entries. Slots are appended at submission and a
	// completed slot returns to freeSlots for reuse, so the arena's length
	// tracks peak in-flight jobs, not the trace.
	jobs []jobState

	totalJobs   int   // exact number of jobs the source will yield
	submitted   int   // jobs pulled from the source so far
	slots       int   // total execution slots (len(nodes))
	shortOnly   int32 // cached s.part.ShortOnlyNodes() for the busy-count split
	busyNodes   int
	busyGeneral int // busy slots in the general partition
	jobsDone    int
	lastDone    float64 // completion time of the last finished job
	nextSample  float64 // absolute time of the next utilization tick

	// Dynamic cluster state. view is always set (static when no scenario
	// is configured — every sampler then delegates to the dense partition
	// fast path); everything else is nil/zero on a churn-free run, and the
	// hot paths guard on dyn == nil.
	view     *core.ClusterView
	speeds   []float64 // view.Speeds(), cached; nil when homogeneous
	dyn      *dynState
	churnSrc *randdist.Source // seeded stream for random churn picks

	// Multi-scheduler state; nil unless Config.Schedulers turns the model
	// on, and every hot path guards on that (see sched.go).
	ms *multiSched

	// Fault-plane state; nil unless Config.Faults turns the gray-failure
	// model on, and every send site guards on that (see faults.go). A fault
	// run always carries dyn too — the defenses ride the incarnation
	// machinery — but membership stays static without churn.
	flt *faultState

	centralDown      bool
	centralDownSince float64
	churnIDs         []int // scratch for random churn picks
	deadIDs          []int // scratch for enumerating dead nodes

	// Per-simulation scratch buffers. The simulation is single-threaded
	// and each use fully overwrites its buffer before reading, so reusing
	// them keeps the probe and steal paths allocation-free:
	//
	//   - stealFlags: appendQueueLongFlags snapshot of one victim's queue
	//   - nodeIDs: probe targets (submit) and steal candidates; the two
	//     uses never overlap — probe placement only schedules events, and
	//     a steal attempt never submits
	//   - stolen: entries moved by one steal, copied into the thief's
	//     queue before the next attempt
	//   - shortIdx, shortPos: the random-position ablation's picked queue
	//     indices and its short-entry position list
	stealFlags []bool
	nodeIDs    []int
	stolen     []entry
	shortIdx   []int
	shortPos   []int

	// waits holds every piece of work that cannot be placed right now, one
	// FIFO per reason (see waitlist.go).
	waits policy.Waitlist[waiting]
}

// Run simulates the trace under the configuration, executing the policy
// named by cfg.Policy, and returns the collected metrics. Runs are
// deterministic for a given (trace, config) pair. It is RunSource over
// workload.NewTraceSource(trace), after the two checks only a whole trace
// allows before the first event: structural validity, and the feasibility
// rule applied to every job.
func Run(trace *workload.Trace, cfg policy.Config) (*policy.Report, error) {
	s, err := newSimulation(trace, cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// RunSource simulates a workload: jobs are pulled from src one submit event
// at a time, so together with job-slot recycling what the engine holds is
// O(in-flight jobs + slots) regardless of trace length. The source must
// yield jobs in non-decreasing submit-time order (its Meta must say Sorted)
// and its Meta.NumJobs must be exact. Runs are deterministic for a given
// (job stream, config) pair, whatever kind of source yields the stream.
func RunSource(src workload.Source, cfg policy.Config) (*policy.Report, error) {
	s, err := newSimulationSource(src, cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// newSimulation checks an in-memory trace and builds the simulation on its
// TraceSource. Split from run so tests can inspect engine state.
func newSimulation(trace *workload.Trace, cfg policy.Config) (*simulation, error) {
	// Config errors take precedence over trace errors (and the source's
	// Meta scan must not run on a structurally invalid trace).
	if _, err := cfg.Normalize(trace); err != nil {
		return nil, err
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	s, err := newSimulationSource(workload.NewTraceSource(trace), cfg)
	if err != nil {
		return nil, err
	}
	// Nothing has run yet: hold every job to the feasibility rule now
	// rather than as each is pulled.
	if err := policy.CheckTraceFeasibility(trace, s.cfg, s.pol); err != nil {
		return nil, err
	}
	return s, nil
}

// newSimulationSource validates the inputs and builds the arenas and event
// engine, leaving the first submit (and the first utilization tick)
// scheduled.
func newSimulationSource(src workload.Source, cfg policy.Config) (*simulation, error) {
	meta := src.Meta()
	cfg, err := cfg.NormalizeMeta(meta)
	if err != nil {
		return nil, err
	}
	if !meta.Sorted {
		return nil, fmt.Errorf("sim: source %q does not guarantee submit-time order; sort the trace first", meta.Name)
	}
	if meta.NumJobs < 0 {
		return nil, fmt.Errorf("sim: source %q reports negative job count %d", meta.Name, meta.NumJobs)
	}
	pol, err := policy.New(cfg.Policy, cfg)
	if err != nil {
		return nil, err
	}

	s := &simulation{
		cfg:        cfg,
		pol:        pol,
		source:     src,
		meta:       meta,
		totalJobs:  meta.NumJobs,
		classifier: core.Classifier{Cutoff: cfg.Cutoff},
		estimator:  core.NewEstimator(cfg.MisestimateLo, cfg.MisestimateHi, cfg.Seed+policy.SeedEstimator),
		src:        randdist.New(cfg.Seed),
		res:        &policy.Report{Engine: "sim", Policy: pol.String(), Config: cfg},
	}
	s.recycler, _ = src.(workload.Recycler)
	s.slots = cfg.TotalSlots()

	// The queue holds flat simEvent records. Submission is lazily chained
	// (one pending submit at a time), so peak pending events track
	// in-flight state: one completion or probe round-trip per busy slot,
	// messages in their 0.5 ms network flight, the submit chain, and the
	// sampler tick — O(slots + arrival burst), however long the trace.
	// Pre-size with that bound, but never beyond what the whole trace
	// could possibly keep pending at once (tiny traces on huge clusters).
	// The hint is about avoiding growth copies in the hot loop; either
	// way the queue grows on demand if a burst exceeds it.
	queueHint := s.slots + 64
	if meta.TotalTasks > 0 {
		traceBound := 2 + meta.NumJobs + 3*int(meta.TotalTasks)
		queueHint = min(queueHint, traceBound)
	}
	// The engine's post lanes carry the constant-delay messages (hop): their
	// delay is the leg every un-jittered message takes.
	s.eng = eventq.New(s.dispatch, queueHint,
		eventq.WithBackend(engineBackend), eventq.WithPostDelay(cfg.NetworkDelay))

	// One flat arena per hot structure: node and job state become
	// sequential array indexing instead of 15k–170k individually
	// heap-allocated objects.
	s.nodes = make([]node, s.slots)
	for i := range s.nodes {
		s.nodes[i].id = int32(i)
	}
	// The job arena starts small and grows only to the peak in-flight job
	// count: completed slots are recycled.
	s.jobs = make([]jobState, 0, min(meta.NumJobs, streamArenaHint))
	// Queue entries outnumber jobs (two probes per task under batch
	// sampling), so on every run their waits go to bounded reservoirs.
	s.res.Waits = policy.NewWaitReservoirs(policy.DefaultReservoirSize, cfg.Seed+policy.SeedReservoirs)
	if cfg.DiscardJobReports {
		// Jobs retention is off: aggregate into bounded reservoirs instead
		// of the per-job slice, so report memory is O(1) too.
		s.res.Streamed = policy.NewStreamedStats(policy.DefaultReservoirSize, cfg.Seed+policy.SeedReservoirs)
	} else {
		// Every job produces exactly one JobReport; reserving the slice up
		// front keeps jobCompleted off the allocator's growth path.
		s.res.Jobs = make([]policy.JobReport, 0, meta.NumJobs)
	}

	s.part = core.NewPartition(s.slots, pol.ShortPartitionFraction())
	s.shortOnly = int32(s.part.ShortOnlyNodes())
	s.steal = core.StealPolicy{Cap: cfg.StealCap, Enabled: pol.Steal()}
	if s.steal.Enabled && s.steal.Cap > 0 {
		s.nodeIDs = make([]int, 0, s.steal.Cap+1)
	}

	// The cluster view: static (and therefore drawing bit-identically to
	// the plain partition samplers) unless the scenario scripts membership
	// transitions or speed heterogeneity.
	s.view = core.NewClusterView(s.part)
	if cfg.Heterogeneity != nil {
		s.view.SetSpeeds(cfg.Heterogeneity.Factors(s.slots, cfg.Seed+policy.SeedSpeeds))
		s.speeds = s.view.Speeds()
	}
	if churnHasMembership(cfg.Churn) {
		s.view.EnableMembership()
		s.dyn = newDynState(s.slots)
		s.churnSrc = randdist.New(cfg.Seed + policy.SeedChurn)
	}

	if pool := pol.CentralPool(); pool != policy.PoolNone {
		s.central = core.NewCentralQueue(pool.IDs(s.part))
	}
	if cfg.Schedulers != nil {
		s.initMultiSched()
	}
	if cfg.Faults != nil {
		s.flt = newFaultState(*cfg.Faults, cfg.Seed, s.slots)
		s.res.MessagesDropped = &s.flt.drops
		if s.dyn == nil {
			// The defenses (stale-completion epochs, speculative
			// cancellation, running-task re-routes) ride the churn
			// incarnation machinery, so a fault run always carries dynState —
			// but membership stays static, keeping probe sampling on the
			// dense fast path.
			s.dyn = newDynState(s.slots)
		}
	}

	// The feasibility rule, as far as metadata can take it: the widest
	// job's bound either clears every route now or leaves the question to
	// each job as it is pulled (see submit).
	s.feasMargin = cfg.Churn.MaxConcurrentFailures()
	if s.perJobFeas, err = policy.CheckFeasibilityMeta(meta, pol, s.part, s.feasMargin); err != nil {
		return nil, err
	}

	// Lazy chained submission: decode and schedule only the first job's
	// submit; each submit event pulls the next job from the source and
	// schedules it (see submitNext), so the stream stays exactly one
	// decoded job ahead of simulated time. The submit chain runs on the
	// engine's reserved low sequence numbers, so every event receives the
	// exact (timestamp, sequence) rank it would have had if all submits
	// were preloaded before the run — including a submit winning an
	// equal-timestamp tie against any run-time event.
	s.eng.ReserveSeqs(uint64(meta.NumJobs))
	if meta.NumJobs > 0 {
		j, ok := src.Next()
		if !ok {
			err := workload.SourceErr(src)
			if err == nil {
				err = fmt.Errorf("sim: source %q yielded no jobs, meta promised %d", meta.Name, meta.NumJobs)
			}
			return nil, err
		}
		s.pending = j
		s.submitted = 1
		s.eng.AtReserved(j.SubmitTime, 1, simEvent{kind: evSubmit, ref: 0})
	}
	s.nextSample = cfg.UtilizationInterval
	s.eng.At(s.nextSample, simEvent{kind: evSample})

	// Scripted cluster transitions become ordinary typed events, scheduled
	// up front (churn scripts are short). Equal-timestamp ties resolve in
	// spec order, after any same-instant submit (reserved sequence) — the
	// timeline is a pure function of (config, seed).
	if cfg.Churn != nil {
		for _, ev := range cfg.Churn.Events {
			e := simEvent{ref: int32(ev.Node)}
			if ev.Count > 0 {
				e.ref, e.aux = -1, int32(ev.Count)
			}
			switch ev.Kind {
			case policy.ChurnFail:
				e.kind = evNodeFail
			case policy.ChurnRecover:
				e.kind = evNodeRecover
			case policy.ChurnCentralDown:
				e.kind = evCentralDown
			case policy.ChurnCentralUp:
				e.kind = evCentralUp
			case policy.ChurnSchedFail:
				e.kind = evSchedFail
			case policy.ChurnSchedRecover:
				e.kind = evSchedRecover
			}
			s.eng.At(ev.At, e)
		}
	}
	// Scripted straggler events follow the same pattern: typed events in
	// spec order, scheduled up front after sequence reservation.
	if s.flt != nil {
		for i, ev := range s.flt.spec.Stragglers {
			s.eng.At(ev.At, simEvent{kind: evStraggle, aux: int32(i)})
		}
	}
	return s, nil
}

// churnHasMembership reports whether the scenario scripts node-level
// membership transitions (as opposed to only central-scheduler outages,
// which leave sampling on the static fast path).
func churnHasMembership(spec *policy.ChurnSpec) bool {
	if spec == nil {
		return false
	}
	for _, ev := range spec.Events {
		if ev.Kind == policy.ChurnFail || ev.Kind == policy.ChurnRecover {
			return true
		}
	}
	return false
}

// run drains the event queue and assembles the report.
func (s *simulation) run() (*policy.Report, error) {
	s.eng.Run()
	if s.failErr != nil {
		return nil, s.failErr
	}
	if s.sinkErr != nil {
		return nil, fmt.Errorf("sim: job sink: %w", s.sinkErr)
	}
	if s.jobsDone != s.totalJobs {
		// Whatever never completed is waiting for a recovery the scenario
		// never scripted; say what and how much, clause by clause.
		return nil, s.waits.Deadlock("sim", s.jobsDone, s.totalJobs)
	}
	if s.centralDown {
		// Outage never closed by the script: account it up to the end.
		s.centralOutageEnd(s.eng.Now())
	}
	if s.cfg.Churn != nil || s.ms != nil || s.flt != nil {
		// Scripted events, armed snapshot-refresh chains, and fault-plane
		// timers can outlive the workload (a recovery, refresh, or straggler
		// scheduled past the last completion); the makespan is still the
		// last job's completion, not the last drained event.
		s.res.Makespan = s.lastDone
	} else {
		s.res.Makespan = s.eng.Now()
	}
	s.res.Events = s.eng.Executed()
	return s.res, nil
}

// allocSlot returns a jobs-arena index for a newly submitted job: a
// recycled slot when one is free, else a fresh append.
//
//hawk:hotpath
func (s *simulation) allocSlot() int32 {
	if n := len(s.freeSlots); n > 0 {
		idx := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return idx
	}
	s.jobs = append(s.jobs, jobState{})
	return int32(len(s.jobs) - 1)
}

// maybeFreeJob recycles idx's arena slot once nothing can reference it
// again: the job has completed AND no probe chain is outstanding (a probe
// cancellation may arrive after the last task finishes elsewhere). The
// decoded Job goes back to the source's pool, if it keeps one.
//
//hawk:hotpath
func (s *simulation) maybeFreeJob(idx int32) {
	js := &s.jobs[idx]
	if js.probes != 0 || int(js.finished) != len(js.durations) {
		return
	}
	ref := js.ref
	lost := js.lost[:0]
	*js = jobState{lost: lost} // keep the lost backing array with the slot
	s.freeSlots = append(s.freeSlots, idx)
	if s.recycler != nil {
		s.recycler.Recycle(ref)
	}
}

// failRun records the first fatal mid-run error. The submit chain checks
// it before pulling the next job, so the stream stops and run surfaces the
// error after the queue drains.
func (s *simulation) failRun(err error) {
	if s.failErr == nil {
		s.failErr = err
	}
}

// submit routes a newly arrived decoded job per the policy's decision,
// populating a (possibly recycled) arena slot.
//
//hawk:hotpath
func (s *simulation) submit(job *workload.Job) {
	idx := s.allocSlot()
	js := &s.jobs[idx]
	js.ref = job
	js.id = job.ID
	js.submit = job.SubmitTime
	js.durations = job.Durations
	js.estimate = s.estimator.Estimate(job)
	js.long = s.classifier.IsLong(js.estimate)
	js.trueLong = s.classifier.IsLong(job.AvgTaskDuration())
	js.outage = s.centralDown
	if s.flt != nil && s.flt.spec.Speculate {
		js.specThresh, s.flt.durScratch = s.flt.spec.SpeculationThreshold(job.Durations, s.flt.durScratch)
	}
	s.res.LastSubmit = job.SubmitTime
	if s.perJobFeas {
		// The same rule, with the same message, a whole trace is held to
		// before the run (policy.CheckTraceFeasibility).
		if err := policy.CheckFeasibility(js.info(), !s.cfg.ExactEstimates(), s.pol, s.part, s.feasMargin); err != nil {
			s.failRun(err)
			return
		}
	}
	s.routeJob(idx)
}

// routeJob executes the policy's placement decision for a populated job —
// at submission, and again when a parked job is released by a recovery.
//
//hawk:hotpath
func (s *simulation) routeJob(idx int32) {
	js := &s.jobs[idx]
	dec := s.pol.Route(js.info())
	if s.ms != nil && !s.msAssignOwner(idx) {
		return // no live scheduler; parked until one recovers
	}
	switch dec.Action {
	case policy.ActionCentral:
		s.centralJob(idx)
	default:
		// Probe sampling runs against the owning scheduler's (possibly
		// stale) snapshot; on a single-scheduler run that is the truth
		// view itself.
		view := s.view
		if s.ms != nil {
			view = s.ms.scheds[js.owner].view
		}
		poolSize := dec.Pool.Size(view)
		if s.ms != nil && s.view.Dynamic() && poolSize < len(js.durations) {
			// The stale snapshot looks too narrow for batch sampling; a
			// real scheduler would consult fresh state before giving up,
			// so refresh and re-check against the truth.
			s.refreshSched(int32(js.owner), s.eng.Now())
			poolSize = dec.Pool.Size(view)
		}
		if s.view.Dynamic() && poolSize < len(js.durations) {
			// Batch sampling needs one live candidate per task; churn has
			// shrunk the pool below that, so park the job until nodes
			// recover. The feasibility margin makes this unreachable for
			// validated scenarios — it is the belt to that suspender.
			s.park(policy.WaitPoolWidth, waiting{jidx: idx, tidx: -1})
			return
		}
		k := core.NumProbes(len(js.durations), s.cfg.ProbeRatio, poolSize)
		s.nodeIDs = dec.Pool.SampleInto(s.nodeIDs[:0], view, s.src, k)
		s.probeJob(idx, s.nodeIDs)
	}
}

// probeJob sends batch-sampling probes to the chosen nodes; each arrives
// after one network delay.
//
//hawk:hotpath
func (s *simulation) probeJob(idx int32, nodeIDs []int) {
	s.res.ProbesSent += int64(len(nodeIDs))
	s.jobs[idx].probes += int32(len(nodeIDs))
	for _, id := range nodeIDs {
		s.sendProbe(idx, int32(id), 0)
	}
}

// centralJob places every task of the job with the §3.7 algorithm: each
// task goes to the server with the smallest estimated waiting time, which
// is then bumped by the job's estimated task runtime. While the central
// scheduler is scripted down (or churn has removed its every server) the
// whole job waits instead.
//
//hawk:hotpath
func (s *simulation) centralJob(idx int32) {
	if s.centralUnavailable() {
		s.park(policy.WaitCentral, waiting{jidx: idx, tidx: -1})
		return
	}
	for i := range s.jobs[idx].durations {
		s.centralTask(idx, int32(i))
	}
}

// attemptSteal performs one randomized steal attempt for an idle thief:
// contact up to Cap random general-partition nodes and move the first
// eligible group found (§3.6, Figure 3). Per §4.1 the decision itself is
// free; stolen work restarts instantly at the thief.
//
//hawk:hotpath
func (s *simulation) attemptSteal(thief *node) {
	if !s.steal.Enabled {
		return
	}
	s.nodeIDs = s.steal.CandidatesInto(s.nodeIDs[:0], s.view, s.src, int(thief.id))
	candidates := s.nodeIDs
	if len(candidates) == 0 {
		return
	}
	s.res.StealAttempts++
	for _, id := range candidates {
		s.res.StealContacts++
		if s.flt != nil && s.faultDrop(s.flt.spec.StealLoss, &s.flt.drops.Steals) {
			continue // the contact was lost; stealing is opportunistic, move on
		}
		victim := &s.nodes[id]
		if victim.queueLen() == 0 {
			continue
		}
		if !victim.busy {
			// The victim is between entries at this very instant; its
			// queue will advance on its own. Skip rather than race it.
			continue
		}
		s.stealFlags = victim.appendQueueLongFlags(s.stealFlags[:0])
		flags := s.stealFlags
		start, end, ok := core.EligibleGroup(victim.runningLong, flags)
		if !ok {
			continue
		}
		if s.cfg.StealRandomPositions {
			s.shortIdx, s.shortPos = core.RandomShortIndicesInto(
				s.shortIdx[:0], s.shortPos[:0], flags, end-start, s.src)
			s.stolen = victim.appendStealIndices(s.stolen[:0], s.shortIdx)
		} else {
			s.stolen = victim.appendStealRange(s.stolen[:0], start, end)
		}
		if len(s.stolen) == 0 {
			continue
		}
		s.res.StealSuccesses++
		s.res.EntriesStolen += int64(len(s.stolen))
		thief.enqueueFront(s, s.stolen)
		return
	}
}

//hawk:hotpath
func (s *simulation) jobCompleted(idx int32, now float64) {
	s.jobsDone++
	if now > s.lastDone {
		s.lastDone = now
	}
	js := &s.jobs[idx]
	jr := policy.JobReport{
		ID:           js.id,
		SubmitTime:   js.submit,
		Runtime:      now - js.submit,
		Tasks:        len(js.durations),
		Long:         js.long,
		TrueLong:     js.trueLong,
		Estimate:     js.estimate,
		DuringOutage: js.outage,
	}
	if s.cfg.JobSink != nil {
		if err := s.cfg.JobSink(jr); err != nil && s.sinkErr == nil {
			s.sinkErr = err
		}
	}
	if s.res.Streamed != nil {
		s.res.Streamed.ObserveJob(jr)
	} else {
		s.res.Jobs = append(s.res.Jobs, jr)
	}
	s.maybeFreeJob(idx)
}

// observeWait records how long a queue entry waited at nodes before its
// slot opened, split by job class — diagnostic for the queueing analyses.
//
//hawk:hotpath
func (s *simulation) observeWait(e entry, now float64) {
	s.res.WaitReservoir(e.long()).Add(now - e.enq)
}

//hawk:hotpath
func (s *simulation) nodeBecameBusy(id int32) {
	s.busyNodes++
	if id >= s.shortOnly {
		s.busyGeneral++
	}
}

//hawk:hotpath
func (s *simulation) nodeBecameIdle(id int32) {
	s.busyNodes--
	if id >= s.shortOnly {
		s.busyGeneral--
	}
}
