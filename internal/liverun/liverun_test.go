package liverun

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// fastConfig returns a config with minimal latency so tests run quickly.
func fastConfig(pol string) policy.Config {
	return policy.Config{
		NumNodes:     20,
		Policy:       pol,
		NetworkDelay: (50 * time.Microsecond).Seconds(),
		Seed:         1,
	}
}

// msTrace builds a trace whose durations are given in milliseconds.
func msTrace(cutoffMs float64, jobs ...*workload.Job) *workload.Trace {
	tr := &workload.Trace{
		Name:                   "live",
		Jobs:                   jobs,
		Cutoff:                 cutoffMs / 1000,
		ShortPartitionFraction: 0.2,
	}
	for _, j := range tr.Jobs {
		for i := range j.Durations {
			j.Durations[i] /= 1000 // ms -> seconds
		}
	}
	return tr
}

func job(id int, submit float64, dursMs ...float64) *workload.Job {
	return &workload.Job{ID: id, SubmitTime: submit, Durations: dursMs}
}

func TestLiveAllJobsComplete(t *testing.T) {
	tr := msTrace(500,
		job(1, 0, 10, 20, 30),
		job(2, 0, 5),
		job(3, 0.01, 2000, 2000), // long
		job(4, 0.02, 15, 15),
	)
	for _, pol := range []string{"sparrow", "hawk"} {
		res, err := Run(tr, fastConfig(pol))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if len(res.Jobs) != 4 {
			t.Fatalf("%s: %d results", pol, len(res.Jobs))
		}
		if res.TasksExecuted != 8 {
			t.Fatalf("%s: executed %d tasks, want 8", pol, res.TasksExecuted)
		}
		for _, j := range res.Jobs {
			if j.Runtime <= 0 {
				t.Fatalf("%s: job %d runtime %v", pol, j.ID, j.Runtime)
			}
		}
	}
}

func TestLiveClassification(t *testing.T) {
	tr := msTrace(500, job(1, 0, 10), job(2, 0, 2000))
	res, err := Run(tr, fastConfig("hawk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.ID == 1 && j.Long {
			t.Error("job 1 misclassified long")
		}
		if j.ID == 2 && !j.Long {
			t.Error("job 2 misclassified short")
		}
	}
	if len(res.ShortRuntimes()) != 1 || len(res.LongRuntimes()) != 1 {
		t.Fatal("class split wrong")
	}
}

func TestLiveRuntimeAtLeastTaskDuration(t *testing.T) {
	tr := msTrace(500, job(1, 0, 50, 50))
	res, err := Run(tr, fastConfig("sparrow"))
	if err != nil {
		t.Fatal(err)
	}
	if rt := res.Jobs[0].Runtime; rt < 0.050 {
		t.Fatalf("runtime %v s < task duration 50 ms", rt)
	}
}

func TestLiveValidation(t *testing.T) {
	tr := msTrace(500, job(1, 0, 10))
	if _, err := Run(tr, policy.Config{NumNodes: 0}); err == nil {
		t.Error("zero nodes should error")
	}
	bad := msTrace(500, job(1, 0, 10))
	bad.Cutoff = 0
	if _, err := Run(bad, policy.Config{NumNodes: 10}); err == nil {
		t.Error("zero cutoff should error")
	}
	wide := msTrace(500, job(1, 0, make([]float64, 30)...))
	for i := range wide.Jobs[0].Durations {
		wide.Jobs[0].Durations[i] = 0.001
	}
	if _, err := Run(wide, fastConfig("sparrow")); err == nil {
		t.Error("job wider than the cluster should error")
	}
}

func TestLiveHawkSteals(t *testing.T) {
	// Long tasks occupy the general partition while short tasks queue
	// behind them; the short-partition nodes should steal at least once.
	jobs := []*workload.Job{}
	id := 0
	for i := 0; i < 4; i++ { // long jobs saturating the 16 general nodes
		id++
		jobs = append(jobs, job(id, 0, 300, 300, 300, 300))
	}
	for i := 0; i < 20; i++ { // short jobs arriving right behind
		id++
		jobs = append(jobs, job(id, 0.005, 10, 10))
	}
	tr := msTrace(100, jobs...)
	res, err := Run(tr, fastConfig("hawk"))
	if err != nil {
		t.Fatal(err)
	}
	if res.StealAttempts == 0 {
		t.Fatal("no steal attempts in a congested hawk cluster")
	}
	// Every attempt contacts at least one victim, as in the simulator.
	if res.StealContacts < res.StealAttempts {
		t.Fatalf("%d victim contacts for %d steal attempts", res.StealContacts, res.StealAttempts)
	}
}

// The live engine executes the policies the simulator runs; the
// split-cluster baseline exercises the short-only probe pool and a central
// queue in the same live run.
func TestLiveSplitPolicy(t *testing.T) {
	tr := msTrace(500, job(1, 0, 10, 10), job(2, 0, 2000), job(3, 0.01, 5))
	tr.ShortPartitionFraction = 0.5
	res, err := Run(tr, fastConfig("split"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 4 {
		t.Fatalf("executed %d tasks, want 4", res.TasksExecuted)
	}
	if res.CentralAssigns == 0 {
		t.Fatal("split must place long jobs centrally")
	}
	if res.StealAttempts != 0 {
		t.Fatal("split must not steal")
	}
}

func TestLiveDisableStealing(t *testing.T) {
	tr := msTrace(500, job(1, 0, 10), job(2, 0, 2000))
	cfg := fastConfig("hawk")
	cfg.DisableStealing = true
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StealAttempts != 0 {
		t.Fatalf("stealing disabled but %d attempts recorded", res.StealAttempts)
	}
}

func TestLiveCentralFeedbackSerializesLongs(t *testing.T) {
	// Two long jobs of two tasks each on a cluster with exactly two
	// general nodes: central placement must spread tasks across both
	// general nodes and the queue feedback keeps assignments balanced,
	// so all tasks complete and both general nodes were used.
	tr := msTrace(100,
		job(1, 0, 200, 200),
		job(2, 0.001, 200, 200),
	)
	tr.ShortPartitionFraction = 0.5 // 10 of 20 nodes short-only
	cfg := fastConfig("hawk")
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 4 {
		t.Fatalf("executed %d tasks, want 4", res.TasksExecuted)
	}
	for _, j := range res.Jobs {
		if !j.Long {
			t.Fatalf("job %d should classify long", j.ID)
		}
		// With 10 general nodes, the four 200 ms tasks can run fully in
		// parallel; any runtime beyond ~3x the task duration means the
		// central queue stacked them pathologically.
		if j.Runtime > 0.6 {
			t.Fatalf("job %d runtime %.3f s, want < 0.6 (parallel placement)", j.ID, j.Runtime)
		}
	}
}
