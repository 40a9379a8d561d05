package sim

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/randdist"
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
// case per deadlock clause, and one with both. Each want lists the
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

// Every job the feasibility rule admits completes under any churn script,
// so no job ever finds its probe pool short of a live node per task (the
// engine parks nothing for that; it panics). Random scripts mix explicit and
// Count failures and recoveries at tied times while wide jobs keep
// arriving, on exactly widest job + MaxConcurrentFailures nodes; a final
// recovery of every node lets central placements that lost their whole
// pool finish. Sparrow probes every job; hawk probes the short ones, and
// under mis-estimation any job may be probed, so both classes are checked.
func TestAdmittedChurnCompletes(t *testing.T) {
	const horizon = 40
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 200, MeanInterArrival: 0.2, Seed: 5,
	}).CapTasks(12)
	widest := tr.Meta().MaxTasks
	cfgs := map[string]policy.Config{
		"sparrow":           {Policy: "sparrow"},
		"hawk":              {Policy: "hawk"},
		"hawk mis-estimate": {Policy: "hawk", MisestimateLo: 0.5, MisestimateHi: 2},
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := randdist.New(seed)
		var evs []policy.ChurnEvent
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			ev := policy.ChurnEvent{At: float64(rng.Intn(horizon)), Kind: policy.ChurnFail, Node: rng.Intn(widest)}
			if rng.Intn(2) == 0 {
				ev.Kind = policy.ChurnRecover
			}
			if rng.Intn(3) == 0 {
				ev.Count = 1 + rng.Intn(6)
			}
			evs = append(evs, ev)
		}
		churn := &policy.ChurnSpec{Events: evs}
		nodes := widest + churn.MaxConcurrentFailures()
		churn.Events = append(churn.Events, policy.ChurnEvent{At: horizon, Kind: policy.ChurnRecover, Count: nodes})
		for name, cfg := range cfgs {
			cfg.NumNodes, cfg.Seed, cfg.Churn = nodes, seed, churn
			if err := runAdmitted(tr, cfg); err != nil {
				t.Errorf("seed %d, %s on %d nodes: %v (script %+v)", seed, name, nodes, err, evs)
			}
		}
	}
}

// runAdmitted runs the trace and reports an error, a panic or a job left
// unfinished.
func runAdmitted(tr *workload.Trace, cfg policy.Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err := Run(tr, cfg)
	if err == nil && len(res.Jobs) != tr.Len() {
		err = fmt.Errorf("%d of %d jobs completed", len(res.Jobs), tr.Len())
	}
	return err
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
// rejected by the feasibility margin when that job is admitted.
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

// Recovering a node that is alive revives nothing, so it must not buy
// margin. Ten explicit failures, a recover of live node 50 and an eleventh
// failure leave 11 of widest+10 nodes dead: the margin used to come out as
// 10, the run was admitted, and it ended in a deadlock with a job parked
// for pool capacity. It is rejected instead, when the widest job is admitted.
func TestChurnMarginIgnoresRecoverOfLiveNode(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 50, MeanInterArrival: 2, Seed: 1,
	})
	maxTasks := 0
	for _, j := range tr.Jobs {
		maxTasks = max(maxTasks, j.NumTasks())
	}
	var evs []policy.ChurnEvent
	for id := 0; id < 10; id++ {
		evs = append(evs, policy.ChurnEvent{At: 0.1, Kind: policy.ChurnFail, Node: id})
	}
	evs = append(evs,
		policy.ChurnEvent{At: 0.2, Kind: policy.ChurnRecover, Node: 50},
		policy.ChurnEvent{At: 0.3, Kind: policy.ChurnFail, Node: 10})
	cfg := policy.Config{
		NumNodes: maxTasks + 10, Policy: "sparrow", Seed: 1,
		Churn: &policy.ChurnSpec{Events: evs},
	}
	_, err := Run(tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "surviving worst-case churn (11 concurrent failures)") {
		t.Fatalf("got %v, want the feasibility rule's rejection under an 11-node margin", err)
	}
}
