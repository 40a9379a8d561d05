package main

import (
	"container/heap"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/policy"
	"repro/internal/randdist"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Sizes the isolated layer timings run at, beyond those the workload
// itself fixes (node count, trace file, report).
const (
	sampleK       = 20    // nodes drawn per sampling call: a 10-task job at probe ratio 2
	holdPending   = 16384 // events pending in the hold model, a loaded run's depth
	cqBatch       = 1024  // central-queue ops per timed phase
	cqBusyShare   = 0.9   // share of servers running a long task in the steady state
	reservoirSize = policy.DefaultReservoirSize
)

// sinkInt keeps results of timed calls alive so the compiler cannot drop
// the calls.
var sinkInt int

// nsPerOp times op in batches until budget is spent (three batches at
// least) and returns the median batch's nanoseconds per op, so a
// preempted batch does not move the result.
func nsPerOp(budget time.Duration, batch int, op func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// decodeSeconds streams the trace file to exhaustion the way the
// simulator pulls it: Next, then Recycle once the job is consumed.
func decodeSeconds(path string) (seconds float64, jobs int, err error) {
	t0 := time.Now()
	src, err := workload.OpenSource(path)
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		jobs++
		src.Recycle(j)
	}
	return time.Since(t0).Seconds(), jobs, src.Err()
}

// cqTimes are the central queue's isolated costs at one cluster size.
type cqTimes struct {
	assignNs, startedNs, finishedNs float64
	syncFromUs                      float64
}

// runningTask is a long task executing on a server until end.
type runningTask struct {
	end  float64
	node int
}

// runningHeap orders the benchmark's own record of running tasks by
// completion time, so they finish in the order a simulation would finish
// them. It is bookkeeping outside the timed phases.
type runningHeap []runningTask

func (h runningHeap) Len() int           { return len(h) }
func (h runningHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h runningHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *runningHeap) Push(x any)        { *h = append(*h, x.(runningTask)) }
func (h *runningHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// timeCentralQueue drives a CentralQueue over n servers through its
// steady-state cycle — running tasks finish in completion order, each is
// replaced by a new task assigned to the least-loaded server, which starts
// it — with cqBusyShare of the servers busy. The three calls are timed in
// separate phases of cqBatch so they can be told apart. SyncFrom is timed
// against the same queue.
func timeCentralQueue(n int, budget time.Duration) cqTimes {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	q := core.NewCentralQueue(ids)
	rng := randdist.New(1)
	const meanEst = 1000.0
	busy := int(cqBusyShare * float64(n))
	batch := min(cqBatch, max(n-busy, 1))
	now := 0.0
	running := make(runningHeap, 0, busy)
	ends := make([]runningTask, batch)
	ests := make([]float64, batch)
	nodes := make([]int, batch)
	// cycle finishes the batch earliest tasks and places batch new ones,
	// returning the time spent in each of the three phases.
	cycle := func() (finished, assign, started time.Duration) {
		for i := range ends {
			ends[i] = heap.Pop(&running).(runningTask)
			ests[i] = rng.Exp(meanEst)
		}
		t0 := time.Now()
		for _, t := range ends {
			now = t.end
			q.TaskFinished(t.node, now)
		}
		t1 := time.Now()
		for i, est := range ests {
			nodes[i], _ = q.Assign(now, est)
		}
		t2 := time.Now()
		for i, est := range ests {
			q.TaskStarted(nodes[i], now, est, est)
		}
		t3 := time.Now()
		for i, est := range ests {
			heap.Push(&running, runningTask{end: now + est, node: nodes[i]})
		}
		return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	}
	for len(running) < busy {
		est := rng.Exp(meanEst)
		id, _ := q.Assign(now, est)
		q.TaskStarted(id, now, est, est)
		heap.Push(&running, runningTask{end: now + est, node: id})
	}
	for i := 0; i < 2*busy/batch; i++ { // turn the population over twice
		cycle()
	}
	var assign, started, finished []float64
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(batch) }
	for start := time.Now(); len(assign) < 3 || time.Since(start) < budget; {
		f, a, s := cycle()
		finished = append(finished, per(f))
		assign = append(assign, per(a))
		started = append(started, per(s))
	}
	mirror := core.NewCentralQueue(nil)
	syncNs := nsPerOp(budget, 8, func() { mirror.SyncFrom(q) })
	sinkInt += mirror.Len()
	return cqTimes{
		assignNs: median(assign), startedNs: median(started), finishedNs: median(finished),
		syncFromUs: syncNs / 1e3,
	}
}

// holdEvent has the 16-byte pointer-free layout of the simulator's event
// record, so the hold model moves what the simulator moves.
type holdEvent struct {
	kind, flags, gen, sched uint8
	ref, jidx, aux          int32
}

// holdNs is the classic hold model on the event engine: with holdPending
// events pending, schedule one and dispatch one.
func holdNs(backend eventq.Backend, budget time.Duration) float64 {
	rng := randdist.New(1)
	e := eventq.New(func(_ float64, ev holdEvent) { sinkInt += int(ev.ref) }, holdPending,
		eventq.WithBackend(backend))
	for i := 0; i < holdPending; i++ {
		e.At(rng.Float64()*1000, holdEvent{kind: 1, ref: int32(i)})
	}
	cycle := func() {
		e.After(rng.Float64()*10, holdEvent{kind: 1})
		e.Step()
	}
	for i := 0; i < 4*holdPending; i++ { // let the ladder reach its steady shape
		cycle()
	}
	return nsPerOp(budget, 4096, cycle)
}

// simOnly is the simulation with nothing around it: an in-memory source,
// no sink, no files.
type simOnly struct {
	report  *policy.Report
	seconds float64
	allocMB float64
	mallocs float64
}

func runSimOnly(w *workloadDef, trace *workload.Trace, seed int64) (simOnly, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	rep, err := sim.RunSource(workload.NewTraceSource(trace), w.config(seed))
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return simOnly{}, err
	}
	return simOnly{
		report:  rep,
		seconds: d.Seconds(),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs: float64(after.Mallocs - before.Mallocs),
	}, nil
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// isolatedLayerMetrics times each layer's public functions on their own,
// at the workload's sizes, giving every timing loop the same slice of
// budget. rep is the workload's own report (from the in-process run): the
// writers are timed on it and its mechanism counts scale the estimates.
func isolatedLayerMetrics(m *metricSet, w *workloadDef, in *inputs, rep *policy.Report, slice time.Duration) error {
	part := core.NewPartition(clusterNodes, in.meta.ShortPartitionFraction)
	general := part.GeneralNodes()
	rng := randdist.New(1)
	buf := make([]int, 0, 64)

	// workload: decode of the workload's own file.
	decS, jobs, err := decodeSeconds(in.path)
	if err != nil {
		return err
	}
	m.add("workload.decode_s", decS, "s")
	m.add("workload.decode_jobs_per_s", float64(jobs)/decS, "jobs/s")
	m.add("workload.decode_mb_per_s", float64(in.bytes)/1e6/decS, "MB/s")
	m.add("workload.encode_s", median(in.enc), "s")
	m.add("workload.generate_s", median(in.gen), "s")
	m.add("workload.trace_bytes", float64(in.bytes), "bytes")

	// randdist: the draw under every probe.
	pickNs := nsPerOp(slice, 1024, func() {
		buf = rng.SampleWithoutReplacementInto(buf[:0], general, sampleK)
	}) / sampleK
	m.add("randdist.sample_ns_per_pick", pickNs, "ns")
	m.add("randdist.est_s", pickNs*float64(rep.ProbesSent)/1e9, "s")

	// core: central queue over the general partition.
	cq := timeCentralQueue(general, slice)
	m.add("core.cq_assign_ns", cq.assignNs, "ns")
	m.add("core.cq_started_ns", cq.startedNs, "ns")
	m.add("core.cq_finished_ns", cq.finishedNs, "ns")
	m.add("core.cq_syncfrom_us", cq.syncFromUs, "us")
	m.add("core.cq_est_s", ((cq.assignNs+cq.startedNs+cq.finishedNs)*float64(rep.CentralAssigns)+
		cq.syncFromUs*1e3*float64(rep.SnapshotRefreshes))/1e9, "s")

	// core: samplers, static then dynamic with the workload's hole.
	view := core.NewClusterView(part)
	m.add("core.sample_static_ns", nsPerOp(slice, 1024, func() {
		buf = view.SampleGeneralInto(buf[:0], rng, sampleK)
	})/sampleK, "ns")
	dyn := core.NewClusterView(part)
	dyn.EnableMembership()
	for _, id := range rng.SampleWithoutReplacement(clusterNodes, w.failedNodes) {
		dyn.Fail(id)
	}
	m.add("core.sample_dynamic_ns", nsPerOp(slice, 1024, func() {
		buf = dyn.SampleGeneralInto(buf[:0], rng, sampleK)
	})/sampleK, "ns")
	stealView := view
	if w.failedNodes > 0 {
		stealView = dyn // the view the workload's thieves draw victims from
	}
	steal := core.NewStealPolicy()
	thief := part.GeneralID(0)
	m.add("core.steal_candidates_ns", nsPerOp(slice, 1024, func() {
		buf = steal.CandidatesInto(buf[:0], stealView, rng, thief)
	}), "ns")
	queue := []bool{false, false, true, false, false, false, true, false}
	executingLong := false
	m.add("core.eligible_group_ns", nsPerOp(slice, 4096, func() {
		start, end, _ := core.EligibleGroup(executingLong, queue)
		sinkInt += end - start
		executingLong = !executingLong
	}), "ns")

	// eventq: both backends; only the ladder runs in the simulator.
	ladderNs := holdNs(eventq.BackendLadder, slice)
	m.add("eventq.hold_ladder_ns", ladderNs, "ns")
	m.add("eventq.hold_heap_ns", holdNs(eventq.BackendHeap, slice), "ns")
	m.add("eventq.est_s", ladderNs*float64(rep.Events)/1e9, "s")

	// stats: the reservoirs a streamed report folds into.
	res := stats.NewReservoir(reservoirSize, 1)
	for i := 0; i < 4*reservoirSize; i++ {
		res.Add(rng.Float64())
	}
	m.add("stats.reservoir_add_ns", nsPerOp(slice, 4096, func() { res.Add(1.5) }), "ns")
	m.add("stats.percentile_us", nsPerOp(slice, 4, func() { sinkInt += int(res.Percentile(90)) })/1e3, "us")

	// policy: the per-job sink and the writers, on the workload's report.
	csvSink, err := policy.NewJobCSVSink(io.Discard)
	if err != nil {
		return err
	}
	row := policy.JobReport{ID: 123456, SubmitTime: 98765.4321, Runtime: 1234.56789, Tasks: 27, Estimate: 345.678}
	var sinkErr error
	m.add("policy.csv_sink_ns_per_job", nsPerOp(slice, 1024, func() {
		if err := csvSink.Sink(row); err != nil {
			sinkErr = err
		}
	}), "ns")
	if sinkErr != nil {
		return sinkErr
	}
	var cw countingWriter
	t0 := time.Now()
	if err := rep.WriteJSON(&cw); err != nil {
		return err
	}
	m.add("policy.report_json_s", time.Since(t0).Seconds(), "s")
	m.add("policy.report_json_bytes", float64(cw.n), "bytes")
	t0 = time.Now()
	if err := policy.WriteResultsCSV(io.Discard, rep); err != nil {
		return err
	}
	m.add("policy.report_csv_s", time.Since(t0).Seconds(), "s")
	return nil
}

// simMetrics reports the simulate-only run — host time, allocation, the
// run's exact mechanism counts with their waste ratios — and the simulated
// runtime statistics st read from hawksim's per-job CSV.
func simMetrics(m *metricSet, so simOnly, st simStats) {
	r := so.report
	m.add("sim.run_s", so.seconds, "s")
	m.add("sim.ns_per_event", so.seconds*1e9/float64(r.Events), "ns")
	m.add("sim.alloc_mb", so.allocMB, "MB")
	m.add("sim.mallocs", so.mallocs, "allocs")
	count := func(name string, v int64) { m.add("sim."+name, float64(v), "count") }
	count("events", int64(r.Events))
	count("probes", r.ProbesSent)
	count("cancels", r.Cancels)
	count("tasks_executed", r.TasksExecuted)
	count("central_assigns", r.CentralAssigns)
	count("steal_attempts", r.StealAttempts)
	count("steal_contacts", r.StealContacts)
	count("entries_stolen", r.EntriesStolen)
	count("conflicts", r.PlacementConflicts)
	count("conflict_retries", r.ConflictRetries)
	count("refreshes", r.SnapshotRefreshes)
	count("dropped", r.MessagesDropped.Total())
	count("retries", r.ProbeRetries+r.AssignRetries)
	count("reexecuted", r.TasksReexecuted)
	// Simulated seconds, the paper's headline statistics. At a fixed seed
	// they repeat exactly; across seeds they swing by tens of percent (the
	// cluster runs near saturation), which is why they carry no bound.
	m.add("sim.short_p90_s", st.shortP90, "s")
	m.add("sim.long_p50_s", st.longP50, "s")
	m.add("sim.steal_success_ratio", ratio(r.StealSuccesses, r.StealAttempts), "ratio")
	m.add("sim.conflict_ratio", ratio(r.PlacementConflicts, r.CentralAssigns), "ratio")
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
