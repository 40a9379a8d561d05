package sim

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

func churnTrace(t *testing.T) *workload.Trace {
	t.Helper()
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 400, MeanInterArrival: 0.5, Seed: 11,
	})
}

// Under a rolling-failure scenario every job must still complete: lost
// probes are re-sent, lost tasks re-execute, and the report's churn
// counters account for the damage.
func TestChurnAllJobsComplete(t *testing.T) {
	tr := churnTrace(t)
	cfg := policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 9,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 40, Kind: policy.ChurnFail, Count: 80},
			{At: 90, Kind: policy.ChurnRecover, Count: 80},
			{At: 130, Kind: policy.ChurnFail, Node: 3},    // short partition
			{At: 140, Kind: policy.ChurnFail, Node: 1100}, // general partition
			{At: 190, Kind: policy.ChurnRecover, Node: 3},
			{At: 200, Kind: policy.ChurnRecover, Node: 1100},
		}},
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.NodeFailures != 82 || res.NodeRecoveries != 82 {
		t.Errorf("failures/recoveries = %d/%d, want 82/82", res.NodeFailures, res.NodeRecoveries)
	}
	if res.TasksReexecuted == 0 {
		t.Error("scenario interrupted no running task; enlarge the failure wave")
	}
	if res.WorkLostSeconds <= 0 {
		t.Error("re-executed tasks must account lost work")
	}
	if res.ProbesLost == 0 {
		t.Error("failing 80 loaded nodes must lose probes")
	}
	// Makespan is the last completion, not the last scripted event.
	last := 0.0
	for _, j := range res.Jobs {
		if end := j.SubmitTime + j.Runtime; end > last {
			last = end
		}
	}
	if res.Makespan != last {
		t.Errorf("makespan %g != last completion %g", res.Makespan, last)
	}
}

// The utilization sample at boundary b sees every event at instants ≤ b: a
// node that fails exactly on a boundary is gone from that boundary's sample.
// Ten one-task jobs fill ten centralized nodes until t ≈ 1000; node 0 fails
// at the first boundary and node 1 at the second, so the cluster reads 9 and
// then 8 busy slots of 10 there — the lost tasks re-queue behind running
// ones.
func TestUtilizationSampleSeesItsInstant(t *testing.T) {
	var jobs []*workload.Job
	for i := range 10 {
		jobs = append(jobs, job(i, 0, 1000))
	}
	res := mustRun(t, tinyTrace(jobs...), policy.Config{
		NumNodes: 10, Policy: "centralized", Seed: 1,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: utilizationInterval, Kind: policy.ChurnFail, Node: 0},
			{At: 2 * utilizationInterval, Kind: policy.ChurnFail, Node: 1},
		}},
	})
	got := res.Utilization.Samples()
	if len(got) < 2 || got[0] != 0.9 || got[1] != 0.8 {
		t.Fatalf("utilization samples %v, want 0.9 at t=%d and 0.8 at t=%d: a node failing on a boundary is gone from its sample",
			got[:min(len(got), 3)], utilizationInterval, 2*utilizationInterval)
	}
}

// Churn runs are deterministic: same (trace, config) — including the
// seeded random failure picks — same report.
func TestChurnDeterministic(t *testing.T) {
	tr := churnTrace(t)
	cfg := policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 7,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 30, Kind: policy.ChurnFail, Count: 60},
			{At: 100, Kind: policy.ChurnRecover, Count: 60},
		}},
	}
	a, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) || a.Events != b.Events ||
		a.TasksReexecuted != b.TasksReexecuted || a.ProbesLost != b.ProbesLost {
		t.Fatal("identical churn configs produced different reports")
	}
}

// A scripted central outage parks central placements in the backlog,
// marks jobs submitted meanwhile, accounts the downtime exactly, and
// still completes every job once the scheduler returns.
func TestCentralOutage(t *testing.T) {
	tr := churnTrace(t)
	cfg := policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 9,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 50, Kind: policy.ChurnCentralDown},
			{At: 170, Kind: policy.ChurnCentralUp},
		}},
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.CentralOutageSeconds != 120 {
		t.Errorf("outage seconds = %g, want 120", res.CentralOutageSeconds)
	}
	if res.CentralDeferred == 0 {
		t.Error("a 120 s outage under this load must defer central placements")
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
	if len(res.OutageShortRuntimes())+len(res.OutageLongRuntimes()) != marked {
		t.Error("outage runtime helpers disagree with the per-job marks")
	}
	// An outage with no membership churn keeps the static sampling fast
	// path, so the run before the outage is bit-identical to a run
	// without a scenario: every job completed before the outage started
	// has the exact same runtime.
	base, err := Run(tr, policy.Config{NumNodes: 1200, Policy: "hawk", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	baseRT := map[int]float64{}
	for _, j := range base.Jobs {
		baseRT[j.ID] = j.Runtime
	}
	checked := 0
	for _, j := range res.Jobs {
		if j.SubmitTime+j.Runtime < 50 {
			if baseRT[j.ID] != j.Runtime {
				t.Fatalf("job %d finished before the outage but diverged from the static run", j.ID)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no job completed before the outage; move the window")
	}
}

// A scenario that strands work must end in the deadlock diagnosis, never a
// hang, and the diagnosis must say what is waiting and how much of it: one
// case per kind of wait a validated scenario can strand. Each want lists the
// detail clauses in the order the error carries them — the exact phrases, so
// the table-generated message cannot drift from what operators grep for.
func TestDeadlockDiagnosis(t *testing.T) {
	const (
		central   = "central placements backlogged (scenario never restored the central scheduler?)"
		scheduler = "placements waiting for a live scheduler (scenario never recovered one?)"
	)
	bothSchedulersFail := []policy.ChurnEvent{
		{At: 20, Kind: policy.ChurnSchedFail, Node: 0},
		{At: 20, Kind: policy.ChurnSchedFail, Node: 1},
	}
	for _, c := range []struct {
		name  string
		trace *workload.Trace
		cfg   policy.Config
		want  []string
	}{
		// An outage the script never closes: long jobs can never place.
		{"central outage never ends", churnTrace(t), policy.Config{
			NumNodes: 1200, Policy: "hawk", Seed: 9,
			Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{{At: 50, Kind: policy.ChurnCentralDown}}},
		}, []string{central}},
		// Every scheduler fails for good: the four scheduler-wait kinds
		// (jobs, central tasks, probes, probe replies) sum into one clause.
		{"schedulers never recover", goldenTrace(), policy.Config{
			NumNodes: 1200, Policy: "hawk", Seed: 9, Schedulers: &policy.SchedulerSpec{Count: 2},
			Churn: &policy.ChurnSpec{Events: bothSchedulersFail},
		}, []string{scheduler}},
		{"outage, then schedulers never recover", goldenTrace(), policy.Config{
			NumNodes: 1200, Policy: "hawk", Seed: 9, Schedulers: &policy.SchedulerSpec{Count: 2},
			Churn: &policy.ChurnSpec{Events: append([]policy.ChurnEvent{{At: 5, Kind: policy.ChurnCentralDown}}, bothSchedulersFail...)},
		}, []string{central, scheduler}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.trace, c.cfg)
			if err == nil {
				t.Fatal("the stranded scenario completed")
			}
			pattern := `^sim: deadlock — \d+ of \d+ jobs completed`
			for _, clause := range c.want {
				pattern += `; ([1-9]\d*) ` + regexp.QuoteMeta(clause)
			}
			if !regexp.MustCompile(pattern + "$").MatchString(err.Error()) {
				t.Errorf("want the deadlock diagnosis with clauses %q and counts > 0, got: %v", c.want, err)
			}
		})
	}
}

// Every wait kind must say who releases it and how it is diagnosed (the
// shared policy.WaitRules row) and how it resumes here: a kind added without
// either would otherwise strand work silently.
func TestWaitKindTableComplete(t *testing.T) {
	used := map[int]bool{}
	for k, rule := range policy.WaitRules {
		if rule.ReleasedBy == 0 || resumes[k] == nil || int(rule.Clause) >= len(policy.WaitClauses) {
			t.Errorf("wait kind %d: incomplete row %+v (resume bound: %v)", k, rule, resumes[k] != nil)
		}
		used[rule.Clause] = true
	}
	for c, text := range policy.WaitClauses {
		if !used[c] || !strings.Contains(text, "%d") {
			t.Errorf("deadlock clause %d (%q) is unused or reports no count", c, text)
		}
	}
}

// Heterogeneity that leaves every node at speed 1 — explicitly, or with
// zero-fraction classes — must not disturb the engine at all: identical
// jobs, counters, and event counts to a homogeneous run.
func TestUniformHeterogeneityIsIdentity(t *testing.T) {
	tr := churnTrace(t)
	base, err := Run(tr, policy.Config{NumNodes: 1200, Policy: "hawk", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*policy.Heterogeneity{
		"speed-one": {Classes: []policy.SpeedClass{{Fraction: 0.5, Speed: 1}}},
		"zero-frac": {Classes: []policy.SpeedClass{{Fraction: 0, Speed: 0.25}}},
	} {
		res, err := Run(tr, policy.Config{NumNodes: 1200, Policy: "hawk", Seed: 9, Heterogeneity: h})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Jobs, base.Jobs) || res.Events != base.Events {
			t.Errorf("%s: uniform heterogeneity changed the run", name)
		}
	}
}

// Slowing the whole cluster by 2x must stretch job runtimes; the central
// queue keeps observing the scaled durations, so the run still completes.
func TestHeterogeneitySlowsJobs(t *testing.T) {
	tr := churnTrace(t)
	base, err := Run(tr, policy.Config{NumNodes: 1200, Policy: "hawk", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(tr, policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 9,
		Heterogeneity: &policy.Heterogeneity{Classes: []policy.SpeedClass{{Fraction: 1, Speed: 0.5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(slow.Jobs), tr.Len())
	}
	if slow.Makespan <= base.Makespan {
		t.Errorf("half-speed cluster makespan %g not above nominal %g", slow.Makespan, base.Makespan)
	}
}

// Node failures can hit the split cluster's central servers too: removing
// and re-adding general nodes must keep the waiting-time queue consistent.
func TestChurnWithCentralServers(t *testing.T) {
	tr := churnTrace(t)
	cfg := policy.Config{
		NumNodes: 1200, Policy: "centralized", Seed: 9,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 40, Kind: policy.ChurnFail, Count: 100},
			{At: 120, Kind: policy.ChurnRecover, Count: 100},
		}},
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.TasksReexecuted == 0 {
		t.Error("failing 100 busy central servers must interrupt tasks")
	}
}

// A scenario that could shrink a probe pool below the widest job is
// rejected before the run by the feasibility margin.
func TestChurnFeasibilityMargin(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 50, MeanInterArrival: 2, Seed: 1,
	})
	maxTasks := 0
	for _, j := range tr.Jobs {
		if n := j.NumTasks(); n > maxTasks {
			maxTasks = n
		}
	}
	nodes := maxTasks + 10
	cfg := policy.Config{
		NumNodes: nodes, Policy: "sparrow", Seed: 1,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 10, Kind: policy.ChurnFail, Count: 20}, // leaves < maxTasks live nodes
		}},
	}
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("scenario shrinking the pool below the widest job must be rejected")
	}
	// The same failures with recoveries in between are fine only if the
	// concurrent maximum stays within the margin.
	ok := policy.Config{
		NumNodes: nodes, Policy: "sparrow", Seed: 1,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 10, Kind: policy.ChurnFail, Count: 5},
			{At: 20, Kind: policy.ChurnRecover, Count: 5},
			{At: 30, Kind: policy.ChurnFail, Count: 5},
			{At: 40, Kind: policy.ChurnRecover, Count: 5},
		}},
	}
	if _, err := Run(tr, ok); err != nil {
		t.Fatalf("staggered failures within the margin rejected: %v", err)
	}
}
