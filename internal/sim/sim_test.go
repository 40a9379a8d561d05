package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// tinyTrace builds a deterministic hand-written trace.
func tinyTrace(jobs ...*workload.Job) *workload.Trace {
	return &workload.Trace{
		Name:                   "tiny",
		Jobs:                   jobs,
		Cutoff:                 1000,
		ShortPartitionFraction: 0.2,
	}
}

func job(id int, submit float64, durs ...float64) *workload.Job {
	return &workload.Job{ID: id, SubmitTime: submit, Durations: durs}
}

func mustRun(t *testing.T, tr *workload.Trace, cfg policy.Config) *policy.Report {
	t.Helper()
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleJobIdleCluster(t *testing.T) {
	// One 3-task short job on an idle cluster: runtime = max duration
	// plus probe latency (1 delay to reach the node + RTT to fetch).
	tr := tinyTrace(job(1, 0, 100, 200, 300))
	for _, pol := range []string{"sparrow", "hawk", "centralized", "split"} {
		res := mustRun(t, tr, policy.Config{NumNodes: 50, Policy: pol, Seed: 1})
		if len(res.Jobs) != 1 {
			t.Fatalf("%s: %d jobs", pol, len(res.Jobs))
		}
		rt := res.Jobs[0].Runtime
		if rt < 300 || rt > 300.01 {
			t.Errorf("%s: runtime = %v, want ~300 (+ms latency)", pol, rt)
		}
	}
}

// On a constant delay no message enters the priority queue — probes and
// placements are one-leg posts, reply round trips two-leg ones — so what the
// queue holds is what needs one: a completion per task executed and the
// submit chain. The event count is what it always was.
func TestJobMessagesShareOneQueueEntry(t *testing.T) {
	const tasks = 10
	durs := make([]float64, tasks)
	for i := range durs {
		durs[i] = 100
	}
	tr := tinyTrace(job(1, 0, durs...))
	for _, c := range []struct {
		pol    string
		events uint64
	}{
		// The submit, then per probe an arrival and a round trip, and a
		// completion per task.
		{"sparrow", 1 + 2*(2*tasks) + tasks},
		// ... or per task an arrival and a completion.
		{"centralized", 1 + 2*tasks},
	} {
		s, err := newSimulation(tr, policy.Config{NumNodes: 50, Policy: c.pol, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != c.events {
			t.Errorf("%s: %d events, want %d", c.pol, res.Events, c.events)
		}
		want := uint64(res.TasksExecuted) + uint64(len(res.Jobs))
		if got := s.eng.Entries(); got != want || want != tasks+1 {
			t.Errorf("%s: %d events in %d queue entries, want %d: %d completions, %d submits",
				c.pol, res.Events, got, want, res.TasksExecuted, len(res.Jobs))
		}
	}
}

// A finite but huge time — a submit or a duration of 1e300 — is an error
// naming the instant and the sampling interval, reached without sampling: one
// sample per interval up to it would grow the series until memory ran out.
func TestHugeTimeIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   *workload.Trace
	}{
		{"submit", tinyTrace(job(1, 1e300, 100))},
		{"duration", tinyTrace(job(1, 0, 1e300))},
	} {
		s, err := newSimulation(c.tr, policy.Config{NumNodes: 50, Policy: "hawk", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.run()
		if err == nil || !strings.Contains(err.Error(), "t=1e+300 every 100 s") {
			t.Errorf("%s: err = %v, want the utilization sampler's bound naming t=1e+300 and the interval", c.name, err)
		}
		if n := s.res.Utilization.Len(); n != 0 {
			t.Errorf("%s: %d samples recorded before the refusal, want 0", c.name, n)
		}
	}
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{NumJobs: 300, MeanInterArrival: 1, Seed: 3})
	wantTasks := 0
	for _, j := range tr.Jobs {
		wantTasks += j.NumTasks()
	}
	for _, pol := range []string{"sparrow", "hawk", "centralized", "split"} {
		res := mustRun(t, tr, policy.Config{NumNodes: 2000, Policy: pol, Seed: 4})
		if res.TasksExecuted != int64(wantTasks) {
			t.Errorf("%s: executed %d tasks, want %d", pol, res.TasksExecuted, wantTasks)
		}
		if len(res.Jobs) != tr.Len() {
			t.Errorf("%s: %d job results, want %d", pol, len(res.Jobs), tr.Len())
		}
	}
}

func TestProbeAccounting(t *testing.T) {
	// Sparrow sends 2 probes per task; surplus probes are cancelled.
	tr := tinyTrace(job(1, 0, 10, 10, 10, 10))
	res := mustRun(t, tr, policy.Config{NumNodes: 100, Policy: "sparrow", Seed: 1})
	if res.ProbesSent != 8 {
		t.Fatalf("probes = %d, want 8", res.ProbesSent)
	}
	if res.Cancels != 4 {
		t.Fatalf("cancels = %d, want 4", res.Cancels)
	}
}

func TestJobRuntimeIsLastTaskCompletion(t *testing.T) {
	// Two jobs on one node: FIFO forces serialization. Job 1 has two
	// tasks of 100 s; with a single node its runtime is ~200 s.
	tr := tinyTrace(job(1, 0, 100, 100))
	res := mustRun(t, tr, policy.Config{NumNodes: 1, Policy: "centralized", Seed: 1})
	rt := res.Jobs[0].Runtime
	if rt < 200 || rt > 200.01 {
		t.Fatalf("serialized runtime = %v, want ~200", rt)
	}
}

func TestClassificationAndCutoff(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10), job(2, 1, 5000))
	res := mustRun(t, tr, policy.Config{NumNodes: 10, Policy: "hawk", Seed: 1})
	for _, j := range res.Jobs {
		switch j.ID {
		case 1:
			if j.Long || j.TrueLong {
				t.Error("job 1 should be short")
			}
		case 2:
			if !j.Long || !j.TrueLong {
				t.Error("job 2 should be long")
			}
		}
	}
	if len(res.ShortRuntimes()) != 1 || len(res.LongRuntimes()) != 1 {
		t.Fatal("per-class runtime split wrong")
	}
}

func TestDeterminism(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{NumJobs: 200, MeanInterArrival: 1, Seed: 8})
	for _, pol := range []string{"sparrow", "hawk"} {
		a := mustRun(t, tr, policy.Config{NumNodes: 1000, Policy: pol, Seed: 9})
		b := mustRun(t, tr, policy.Config{NumNodes: 1000, Policy: pol, Seed: 9})
		if a.Makespan != b.Makespan || a.StealSuccesses != b.StealSuccesses {
			t.Fatalf("%s: runs with equal seeds differ", pol)
		}
		for i := range a.Jobs {
			if a.Jobs[i].Runtime != b.Jobs[i].Runtime {
				t.Fatalf("%s: job %d runtime differs", pol, a.Jobs[i].ID)
			}
		}
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{NumJobs: 200, MeanInterArrival: 1, Seed: 8})
	a := mustRun(t, tr, policy.Config{NumNodes: 500, Policy: "sparrow", Seed: 1})
	b := mustRun(t, tr, policy.Config{NumNodes: 500, Policy: "sparrow", Seed: 2})
	diff := false
	for i := range a.Jobs {
		if a.Jobs[i].Runtime != b.Jobs[i].Runtime {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestHawkLongJobsStayInGeneralPartition(t *testing.T) {
	// With a 50% short partition on 2 nodes, node 0 is short-only. A
	// long job's tasks must all run on node 1, serialized.
	tr := &workload.Trace{
		Name:                   "conf",
		Jobs:                   []*workload.Job{job(1, 0, 2000, 2000)},
		Cutoff:                 1000,
		ShortPartitionFraction: 0.5,
	}
	res := mustRun(t, tr, policy.Config{NumNodes: 2, Policy: "hawk", Seed: 1})
	rt := res.Jobs[0].Runtime
	if rt < 4000 || rt > 4000.01 {
		t.Fatalf("long job runtime = %v, want ~4000 (serialized on the single general node)", rt)
	}
}

func TestSparrowUsesWholeCluster(t *testing.T) {
	// Same trace under Sparrow: both nodes are usable, so the two tasks
	// run in parallel.
	tr := &workload.Trace{
		Name:                   "conf",
		Jobs:                   []*workload.Job{job(1, 0, 2000, 2000)},
		Cutoff:                 1000,
		ShortPartitionFraction: 0.5,
	}
	res := mustRun(t, tr, policy.Config{NumNodes: 2, Policy: "sparrow", Seed: 1})
	rt := res.Jobs[0].Runtime
	if rt > 2000.02 {
		t.Fatalf("runtime = %v, want ~2000 (parallel)", rt)
	}
}

func TestSplitConfinesShortJobs(t *testing.T) {
	// Split cluster with a 25% short partition on 8 nodes: two 2-task
	// short jobs compete for the 2 short-only nodes, so the second job
	// queues (~200 s total) even though 6 general nodes sit idle. Under
	// Hawk the same jobs would spread over the whole cluster.
	tr := &workload.Trace{
		Name: "conf",
		Jobs: []*workload.Job{
			job(1, 0, 100, 100),
			job(2, 1, 100, 100),
		},
		Cutoff:                 1000,
		ShortPartitionFraction: 0.25,
	}
	res := mustRun(t, tr, policy.Config{NumNodes: 8, Policy: "split", Seed: 1})
	var rt2 float64
	for _, j := range res.Jobs {
		if j.ID == 2 {
			rt2 = j.Runtime
		}
	}
	if rt2 < 150 {
		t.Fatalf("second short job runtime = %v, want ~200 (queued in the short partition)", rt2)
	}
	hawk := mustRun(t, tr, policy.Config{NumNodes: 8, Policy: "hawk", Seed: 1})
	for _, j := range hawk.Jobs {
		if j.ID == 2 && j.Runtime > 150 {
			t.Fatalf("hawk should spread short jobs cluster-wide, runtime = %v", j.Runtime)
		}
	}
}

func TestStealingRescuesShortJob(t *testing.T) {
	// One general node (id 1) and one short-only node (id 0). A long job
	// occupies the general node; a short job's probes (2 probes on 2
	// nodes = both) put one probe behind the long task. Without stealing
	// the short task behind the long task would wait 5000 s; with
	// stealing the idle short-partition node rescues it.
	tr := &workload.Trace{
		Name: "steal",
		Jobs: []*workload.Job{
			{ID: 1, SubmitTime: 0, Durations: []float64{5000, 5000}},
			{ID: 2, SubmitTime: 1, Durations: []float64{10, 10, 10}},
		},
		Cutoff:                 1000,
		ShortPartitionFraction: 1.0 / 3, // ceil(n/3) = 1 of 3 nodes reserved
	}
	withSteal := mustRun(t, tr, policy.Config{NumNodes: 3, Policy: "hawk", Seed: 1})
	without := mustRun(t, tr, policy.Config{NumNodes: 3, Policy: "hawk", Seed: 1, DisableStealing: true})
	var rtSteal, rtNo float64
	for _, j := range withSteal.Jobs {
		if j.ID == 2 {
			rtSteal = j.Runtime
		}
	}
	for _, j := range without.Jobs {
		if j.ID == 2 {
			rtNo = j.Runtime
		}
	}
	if rtSteal > rtNo {
		t.Fatalf("stealing made the short job slower: %v > %v", rtSteal, rtNo)
	}
	if withSteal.StealSuccesses == 0 && rtNo > 1000 && rtSteal > 1000 {
		t.Fatalf("no steals happened and the short job queued: steal=%v no-steal=%v", rtSteal, rtNo)
	}
}

func TestUtilizationBounds(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{NumJobs: 200, MeanInterArrival: 1, Seed: 8})
	res := mustRun(t, tr, policy.Config{NumNodes: 1000, Policy: "hawk", Seed: 1})
	for _, u := range res.Utilization.Samples() {
		if u < 0 || u > 1 {
			t.Fatalf("utilization sample %v out of [0,1]", u)
		}
	}
	if res.Utilization.Len() == 0 {
		t.Fatal("no utilization samples collected")
	}
}

func TestConfigValidation(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10))
	if _, err := Run(tr, policy.Config{NumNodes: 0, Policy: "sparrow"}); err == nil {
		t.Error("zero nodes should error")
	}
	bad := tinyTrace(job(1, 0, 10))
	bad.Cutoff = 0
	if _, err := Run(bad, policy.Config{NumNodes: 10, Policy: "sparrow"}); err == nil {
		t.Error("zero cutoff should error")
	}
	if _, err := Run(tr, policy.Config{NumNodes: 10, Policy: "no-such-policy"}); err == nil {
		t.Error("unknown policy should error")
	}
	invalid := tinyTrace(job(1, -5, 10))
	if _, err := Run(invalid, policy.Config{NumNodes: 10, Policy: "sparrow"}); err == nil {
		t.Error("invalid trace should error")
	}
}

func TestProbeFeasibilityCheck(t *testing.T) {
	// 20-task job on a 10-node cluster cannot be probe-scheduled.
	wide := tinyTrace(job(1, 0, make([]float64, 20)...))
	for i := range wide.Jobs[0].Durations {
		wide.Jobs[0].Durations[i] = 10
	}
	if _, err := Run(wide, policy.Config{NumNodes: 10, Policy: "sparrow"}); err == nil {
		t.Error("infeasible sparrow trace should error")
	}
	// Centralized mode has no such limit.
	if _, err := Run(wide, policy.Config{NumNodes: 10, Policy: "centralized"}); err != nil {
		t.Errorf("centralized should handle wide jobs: %v", err)
	}
	// Capping fixes it.
	capped := wide.CapTasks(10)
	if _, err := Run(capped, policy.Config{NumNodes: 10, Policy: "sparrow"}); err != nil {
		t.Errorf("capped trace should run: %v", err)
	}
}

func TestMisestimationClassification(t *testing.T) {
	// With an extreme downward mis-estimation every job classifies short.
	tr := tinyTrace(job(1, 0, 5000, 5000), job(2, 1, 10))
	res := mustRun(t, tr, policy.Config{
		NumNodes: 10, Policy: "hawk", Seed: 1,
		MisestimateLo: 0.01, MisestimateHi: 0.02,
	})
	for _, j := range res.Jobs {
		if j.Long {
			t.Errorf("job %d classified long despite tiny estimates", j.ID)
		}
		if j.ID == 1 && !j.TrueLong {
			t.Error("TrueLong must ignore mis-estimation")
		}
	}
}

func TestResultHelpers(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10), job(2, 1, 5000))
	res := mustRun(t, tr, policy.Config{NumNodes: 10, Policy: "hawk", Seed: 1})
	if got := res.RuntimesByID(false); len(got) != 1 {
		t.Fatalf("RuntimesByID(short) = %v", got)
	}
	if got := res.RuntimesByID(true); len(got) != 1 {
		t.Fatalf("RuntimesByID(long) = %v", got)
	}
	if math.IsNaN(res.Percentile(false, 50)) {
		t.Fatal("short percentile NaN")
	}
	if res.Summary() == "" {
		t.Fatal("summary empty")
	}
}

func TestNetworkDelayAddsUp(t *testing.T) {
	// A 1-task short job: probe (delay) + request (delay) + response
	// (delay) = 3 network delays before execution.
	tr := tinyTrace(job(1, 0, 100))
	res := mustRun(t, tr, policy.Config{NumNodes: 4, Policy: "sparrow", Seed: 1, NetworkDelay: 1})
	rt := res.Jobs[0].Runtime
	if math.Abs(rt-103) > 1e-9 {
		t.Fatalf("runtime = %v, want 103 (100 + 3 x 1 s delay)", rt)
	}
}

func TestCentralizedDelayIsOneHop(t *testing.T) {
	// A centrally placed task pays only the dispatch hop.
	tr := tinyTrace(job(1, 0, 100))
	res := mustRun(t, tr, policy.Config{NumNodes: 4, Policy: "centralized", Seed: 1, NetworkDelay: 1})
	rt := res.Jobs[0].Runtime
	if math.Abs(rt-101) > 1e-9 {
		t.Fatalf("runtime = %v, want 101", rt)
	}
}
