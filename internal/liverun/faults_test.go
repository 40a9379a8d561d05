package liverun

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// faultLiveTrace is a small mixed workload with tasks long enough
// (hundreds of ms) that stragglers and speculative duplicates have time to
// matter before the run drains.
func faultLiveTrace() *workload.Trace {
	var jobs []*workload.Job
	id := 0
	for burst := 0; burst < 3; burst++ {
		at := 0.05 * float64(burst)
		for i := 0; i < 4; i++ {
			id++
			jobs = append(jobs, job(id, at, 120, 120, 120))
		}
		id++
		jobs = append(jobs, job(id, at, 900, 900)) // long
	}
	return msTrace(500, jobs...)
}

// The live engine's conservation invariant: under any fault mix every
// submitted job completes exactly once (the report has one entry per job)
// and the attempt accounting brackets hold. Together with the simulator's
// twenty-mix sweep this covers both engines, as the issue requires; the
// live mixes stay small because every backoff and straggle here burns real
// wall-clock time.
func TestLiveFaultConservation(t *testing.T) {
	mixes := []struct {
		name   string
		policy string
		spec   policy.FaultSpec
		sched  bool
	}{
		{name: "probe-loss-sparrow", policy: "sparrow",
			spec: policy.FaultSpec{ProbeLoss: 0.3, ReplyLoss: 0.2, MaxRetries: 4}},
		{name: "steal-assign-loss-hawk", policy: "hawk",
			spec: policy.FaultSpec{StealLoss: 0.5, AssignLoss: 0.3, MaxRetries: 4}},
		{name: "jitter-centralized", policy: "centralized",
			spec: policy.FaultSpec{AssignLoss: 0.2, Jitter: 0.002, MaxRetries: 4}},
		{name: "straggle-hawk", policy: "hawk",
			spec: policy.FaultSpec{ProbeLoss: 0.1, Stragglers: []policy.StragglerEvent{
				{At: 0.1, Count: 5, Factor: 3},
				{At: 0.5, Count: 5, Factor: 1}, // recovery re-times in-flight work
			}}},
		{name: "speculate-sparrow", policy: "sparrow",
			spec: policy.FaultSpec{Speculate: true, SpeculatePercentile: 50,
				Stragglers: []policy.StragglerEvent{{At: 0.05, Count: 4, Factor: 8}}}},
		{name: "commit-loss-split", policy: "split", sched: true,
			spec: policy.FaultSpec{CommitLoss: 0.3, AssignLoss: 0.2, MaxRetries: 4}},
		{name: "everything-hawk", policy: "hawk", sched: true,
			spec: policy.FaultSpec{ProbeLoss: 0.2, ReplyLoss: 0.1, StealLoss: 0.3,
				AssignLoss: 0.2, CommitLoss: 0.2, Jitter: 0.001, MaxRetries: 4,
				Speculate: true, SpeculatePercentile: 75,
				Stragglers: []policy.StragglerEvent{{At: 0.1, Count: 3, Factor: 5}}}},
	}
	for i, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			tr := faultLiveTrace()
			cfg := fastConfig(m.policy)
			cfg.Seed = int64(7 + i)
			spec := m.spec
			cfg.Faults = &spec
			if m.sched {
				cfg.Schedulers = &policy.SchedulerSpec{Count: 3, SnapshotInterval: 0.05}
			}
			res, err := Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != tr.Len() {
				t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
			}
			tasks := 0
			for _, j := range tr.Jobs {
				tasks += j.NumTasks()
			}
			for _, j := range res.Jobs {
				if j.Runtime <= 0 {
					t.Fatalf("job %d runtime %v", j.ID, j.Runtime)
				}
			}
			if res.TasksExecuted < int64(tasks) {
				t.Errorf("executed %d task attempts for %d tasks", res.TasksExecuted, tasks)
			}
			if res.MessagesDropped == nil {
				t.Fatal("fault run reported no MessagesDropped block")
			}
			// A duplicate may still be in flight when the last original
			// completes and the run tears down, so launches bound the
			// resolved outcomes from above rather than matching exactly.
			if res.SpeculativeWins+res.SpeculativeWasted > res.SpeculativeLaunches {
				t.Errorf("speculation resolved %d+%d outcomes from %d launches",
					res.SpeculativeWins, res.SpeculativeWasted, res.SpeculativeLaunches)
			}
			if len(spec.Stragglers) > 0 && res.StragglerSlowdowns == 0 {
				t.Error("straggler events applied no slowdowns")
			}
		})
	}
}

// A fault-free run must not grow a fault plane: no MessagesDropped block,
// zero fault counters.
func TestLiveFaultFreeReportOmitsCounters(t *testing.T) {
	res, err := Run(faultLiveTrace(), fastConfig("hawk"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped != nil {
		t.Errorf("fault-free run reported drops %+v", res.MessagesDropped)
	}
	if res.ProbeRetries != 0 || res.AssignRetries != 0 ||
		res.SpeculativeLaunches != 0 || res.StragglerSlowdowns != 0 {
		t.Error("fault-free run reported nonzero fault counters")
	}
}

// Heavy probe and reply loss must visibly engage the defenses — retries
// and drop counters — while the reliable final send keeps every job
// completing (the live engine's no-hang guarantee).
func TestLiveFaultDefensesEngage(t *testing.T) {
	tr := faultLiveTrace()
	cfg := fastConfig("sparrow")
	cfg.Faults = &policy.FaultSpec{ProbeLoss: 0.6, ReplyLoss: 0.5, MaxRetries: 2}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.MessagesDropped.Probes == 0 || res.MessagesDropped.Replies == 0 {
		t.Errorf("60%%/50%% loss dropped %d probes, %d replies", res.MessagesDropped.Probes, res.MessagesDropped.Replies)
	}
	if d := res.MessagesDropped; res.ProbeRetries != d.Probes+d.Replies {
		t.Errorf("%d probe retries for %d dropped probes and %d replies; every drop re-sends",
			res.ProbeRetries, d.Probes, d.Replies)
	}
}

// Speculation rescues straggler-stretched tasks: with a quarter of the
// cluster slowed 10x, duplicates land on nominal nodes and win the race
// while the stragglers' originals grind on to a wasted finish.
func TestLiveSpeculationWins(t *testing.T) {
	var jobs []*workload.Job
	for id := 1; id <= 3; id++ {
		durs := make([]float64, 20)
		for i := range durs {
			durs[i] = 150
		}
		jobs = append(jobs, job(id, 0.02*float64(id), durs...))
	}
	tr := msTrace(500, jobs...)
	cfg := fastConfig("sparrow")
	cfg.Faults = &policy.FaultSpec{
		Speculate: true, SpeculatePercentile: 95,
		Stragglers: []policy.StragglerEvent{{At: 0, Count: 5, Factor: 10}},
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.SpeculativeLaunches == 0 {
		t.Fatal("no duplicates launched against 10x stragglers")
	}
	if res.SpeculativeWins == 0 {
		t.Errorf("%d duplicates launched, none won; wasted=%d", res.SpeculativeLaunches, res.SpeculativeWasted)
	}
}
