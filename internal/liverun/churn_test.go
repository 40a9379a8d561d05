package liverun

import (
	"regexp"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// churnLiveTrace is a small mixed workload whose tasks are long enough
// (hundreds of ms) that a failure scheduled mid-run reliably interrupts
// executing tasks.
func churnLiveTrace() *workload.Trace {
	var jobs []*workload.Job
	id := 0
	for burst := 0; burst < 3; burst++ {
		at := 0.05 * float64(burst)
		for i := 0; i < 4; i++ {
			id++
			jobs = append(jobs, job(id, at, 120, 120))
		}
		id++
		jobs = append(jobs, job(id, at, 900, 900)) // long
	}
	return msTrace(500, jobs...)
}

// The live engine must mirror the simulator's membership transitions:
// scripted failures kill running work, the re-routing machinery re-probes
// and re-assigns it, and every job still completes.
func TestLiveChurnAllJobsComplete(t *testing.T) {
	tr := churnLiveTrace()
	cfg := fastConfig("hawk")
	cfg.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 0.15, Kind: policy.ChurnFail, Count: 6},
		{At: 0.55, Kind: policy.ChurnRecover, Count: 6},
		{At: 0.6, Kind: policy.ChurnFail, Node: 19},
		{At: 0.8, Kind: policy.ChurnRecover, Node: 19},
	}}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	for _, j := range res.Jobs {
		if j.Runtime <= 0 {
			t.Fatalf("job %d runtime %v", j.ID, j.Runtime)
		}
	}
	if res.NodeFailures != 7 || res.NodeRecoveries != 7 {
		t.Errorf("failures/recoveries = %d/%d, want 7/7", res.NodeFailures, res.NodeRecoveries)
	}
	tasks := 0
	for _, j := range tr.Jobs {
		tasks += j.NumTasks()
	}
	if res.TasksExecuted < int64(tasks) {
		t.Errorf("executed %d task attempts for %d tasks", res.TasksExecuted, tasks)
	}
}

// A scripted central outage on the live engine parks long-job placement in
// the backlog until central-up, marks jobs submitted meanwhile, and
// accounts the downtime.
func TestLiveCentralOutage(t *testing.T) {
	tr := churnLiveTrace()
	cfg := fastConfig("hawk")
	cfg.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 0.02, Kind: policy.ChurnCentralDown},
		{At: 0.5, Kind: policy.ChurnCentralUp},
	}}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.CentralDeferred == 0 {
		t.Error("long tasks submitted during the outage must be deferred")
	}
	if res.CentralOutageSeconds < 0.4 {
		t.Errorf("outage seconds = %g, want ~0.48", res.CentralOutageSeconds)
	}
	marked := 0
	for _, j := range res.Jobs {
		if j.DuringOutage {
			marked++
		}
	}
	if marked == 0 {
		t.Error("no job carries the DuringOutage mark")
	}
}

// Heterogeneous speeds slow the live cluster down: the same trace on a
// uniformly half-speed cluster takes measurably longer.
func TestLiveHeterogeneity(t *testing.T) {
	tr := msTrace(500,
		job(1, 0, 200, 200, 200),
		job(2, 0, 200, 200, 200),
	)
	base := fastConfig("sparrow")
	base.NumNodes = 4
	fast, err := Run(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := fastConfig("sparrow")
	slowCfg.NumNodes = 4
	slowCfg.Heterogeneity = &policy.Heterogeneity{Classes: []policy.SpeedClass{{Fraction: 1, Speed: 0.5}}}
	slow, err := Run(tr, slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan < 1.5*fast.Makespan {
		t.Errorf("half-speed makespan %.3fs vs nominal %.3fs: expected ~2x", slow.Makespan, fast.Makespan)
	}
}

// The churn goroutine must stop with the cluster: a run that ends before
// its scripted events fire does not leak work past stopAll.
func TestLiveChurnStopsWithCluster(t *testing.T) {
	tr := msTrace(500, job(1, 0, 5), job(2, 0, 5))
	cfg := fastConfig("sparrow")
	cfg.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 3600, Kind: policy.ChurnFail, Count: 5}, // far beyond the run
	}}
	if _, err := runWithin(t, 30*time.Second, tr, cfg); err != nil {
		t.Fatal(err)
	}
}

// runWithin is Run under a watchdog: a run still blocked after limit fails
// the test instead of hanging it.
func runWithin(t *testing.T, limit time.Duration, tr *workload.Trace, cfg policy.Config) (*policy.Report, error) {
	t.Helper()
	type outcome struct {
		res *policy.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(tr, cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(limit):
		t.Fatalf("Run still blocked after %v", limit)
		return nil, nil
	}
}

// A scenario that strands work ends in the simulator's deadlock diagnosis,
// never a hang: once the churn script is over nothing can release parked
// work, so the run ends when every unfinished job has some. The clauses are
// the simulator's, phrase for phrase (internal/sim TestDeadlockDiagnosis).
func TestLiveDeadlockDiagnosis(t *testing.T) {
	const (
		central   = "central placements backlogged (scenario never restored the central scheduler?)"
		scheduler = "placements waiting for a live scheduler (scenario never recovered one?)"
	)
	outage := fastConfig("hawk")
	outage.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{{At: 0.02, Kind: policy.ChurnCentralDown}}}
	schedulersGone := fastConfig("hawk")
	schedulersGone.Schedulers = &policy.SchedulerSpec{Count: 2, SnapshotInterval: 0.05}
	schedulersGone.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 0.01, Kind: policy.ChurnSchedFail, Node: 0},
		{At: 0.01, Kind: policy.ChurnSchedFail, Node: 1},
	}}
	for _, c := range []struct {
		name   string
		trace  *workload.Trace
		cfg    policy.Config
		clause string
	}{
		{"central outage never ends", churnLiveTrace(), outage, central},
		{"schedulers never recover", multiSchedTrace(), schedulersGone, scheduler},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := runWithin(t, 30*time.Second, c.trace, c.cfg)
			if err == nil {
				t.Fatal("the stranded scenario completed")
			}
			t.Log(err)
			pattern := `^liverun: deadlock — \d+ of \d+ jobs completed; ([1-9]\d*) ` + regexp.QuoteMeta(c.clause) + `$`
			if !regexp.MustCompile(pattern).MatchString(err.Error()) {
				t.Errorf("want the deadlock diagnosis with clause %q and a count > 0, got: %v", c.clause, err)
			}
		})
	}
}
