package sim

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

func faultTrace(t *testing.T) *workload.Trace {
	t.Helper()
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 250, MeanInterArrival: 0.4, Seed: 11,
	})
}

// faultMix is one seeded fault configuration for the conservation sweep.
type faultMix struct {
	name string
	pol  string
	spec policy.FaultSpec
}

// conservationMixes enumerates the seeded fault combinations the
// conservation invariant must survive: every loss class alone and
// combined, with and without jitter, stragglers, and speculation, across
// the probe-based and central policies. MaxRetries is generous so a chain
// exhausting all retries (p^(MaxRetries+1)) cannot fire by chance and
// starve a placement mid-sweep.
func conservationMixes() []faultMix {
	const r = 8
	return []faultMix{
		{"probe-loss-sparrow", "sparrow", policy.FaultSpec{ProbeLoss: 0.3, MaxRetries: r}},
		{"probe-loss-hawk", "hawk", policy.FaultSpec{ProbeLoss: 0.3, MaxRetries: r}},
		{"reply-loss-sparrow", "sparrow", policy.FaultSpec{ReplyLoss: 0.3, MaxRetries: r}},
		{"reply-loss-hawk", "hawk", policy.FaultSpec{ReplyLoss: 0.3, MaxRetries: r}},
		{"steal-loss-hawk", "hawk", policy.FaultSpec{StealLoss: 0.5}},
		{"assign-loss-hawk", "hawk", policy.FaultSpec{AssignLoss: 0.3, MaxRetries: r}},
		{"assign-loss-central", "centralized", policy.FaultSpec{AssignLoss: 0.3, MaxRetries: r}},
		{"jitter-sparrow", "sparrow", policy.FaultSpec{Jitter: 0.05}},
		{"jitter-hawk", "hawk", policy.FaultSpec{Jitter: 0.05}},
		{"jitter-central", "centralized", policy.FaultSpec{Jitter: 0.05}},
		{"straggle-hawk", "hawk", policy.FaultSpec{
			Stragglers: []policy.StragglerEvent{{At: 20, Count: 100, Factor: 4}, {At: 60, Count: 50, Factor: 2}},
		}},
		{"straggle-recover-hawk", "hawk", policy.FaultSpec{
			Stragglers: []policy.StragglerEvent{{At: 10, Count: 200, Factor: 8}, {At: 50, Count: 200, Factor: 1}},
		}},
		{"speculate-sparrow", "sparrow", policy.FaultSpec{Speculate: true, SpeculatePercentile: 70}},
		{"speculate-hawk", "hawk", policy.FaultSpec{Speculate: true, SpeculatePercentile: 70}},
		{"speculate-stragglers-hawk", "hawk", policy.FaultSpec{
			Speculate: true, SpeculatePercentile: 80,
			Stragglers: []policy.StragglerEvent{{At: 15, Count: 150, Factor: 6}},
		}},
		{"mixed-loss-sparrow", "sparrow", policy.FaultSpec{
			ProbeLoss: 0.1, ReplyLoss: 0.1, StealLoss: 0.1, AssignLoss: 0.1, Jitter: 0.02, MaxRetries: r,
		}},
		{"mixed-loss-hawk", "hawk", policy.FaultSpec{
			ProbeLoss: 0.1, ReplyLoss: 0.1, StealLoss: 0.1, AssignLoss: 0.1, Jitter: 0.02, MaxRetries: r,
		}},
		{"mixed-loss-split", "split", policy.FaultSpec{
			ProbeLoss: 0.1, ReplyLoss: 0.1, AssignLoss: 0.1, Jitter: 0.02, MaxRetries: r,
		}},
		{"everything-hawk", "hawk", policy.FaultSpec{
			ProbeLoss: 0.08, ReplyLoss: 0.08, StealLoss: 0.2, AssignLoss: 0.08,
			Jitter: 0.03, MaxRetries: r, Speculate: true, SpeculatePercentile: 75,
			Stragglers: []policy.StragglerEvent{{At: 25, Count: 80, Factor: 5}},
		}},
		{"everything-central", "centralized", policy.FaultSpec{
			AssignLoss: 0.15, Jitter: 0.03, MaxRetries: r,
			Stragglers: []policy.StragglerEvent{{At: 25, Count: 80, Factor: 5}},
		}},
	}
}

// The conservation invariant: under any fault mix every submitted job
// completes exactly once, and the executed-task count balances the trace
// net of speculative duplicates. The fault plane may delay and duplicate
// work, never lose it.
func TestFaultConservation(t *testing.T) {
	tr := faultTrace(t)
	totalTasks := 0
	for _, j := range tr.Jobs {
		totalTasks += j.NumTasks()
	}
	for i, mix := range conservationMixes() {
		mix := mix
		t.Run(mix.name, func(t *testing.T) {
			spec := mix.spec
			s, err := newSimulation(tr, policy.Config{
				NumNodes: 1200, Policy: mix.pol, Seed: int64(7 + i), Faults: &spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			// The post lanes carry messages only while every leg takes the
			// same delay. Under any jitter no send may reach them: every
			// event is its own queue entry, pushed by the After the simulator
			// always used — a jittered run (hawkbench's churn_faults) stays
			// on the engine path it had before the lanes existed. On a
			// constant delay the same mixes do post.
			if entries := s.eng.Entries(); spec.Jitter != 0 && entries != res.Events {
				t.Fatalf("jitter %g: %d events took %d queue entries; a jittered send went through a post lane",
					spec.Jitter, res.Events, entries)
			} else if spec.Jitter == 0 && entries >= res.Events {
				t.Fatalf("constant delay: %d events took %d queue entries; nothing was posted", res.Events, entries)
			}
			if len(res.Jobs) != tr.Len() {
				t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
			}
			seen := make(map[int]bool, len(res.Jobs))
			for _, j := range res.Jobs {
				if seen[j.ID] {
					t.Fatalf("job %d completed twice", j.ID)
				}
				seen[j.ID] = true
			}
			// Every execution is a trace task or a speculative duplicate
			// that reached a node; a duplicate cancelled while still queued
			// counts as launched but never executes.
			if res.TasksExecuted < int64(totalTasks) {
				t.Fatalf("executed %d < %d trace tasks", res.TasksExecuted, totalTasks)
			}
			if res.TasksExecuted > int64(totalTasks)+res.SpeculativeLaunches {
				t.Fatalf("executed %d > %d tasks + %d speculative launches",
					res.TasksExecuted, totalTasks, res.SpeculativeLaunches)
			}
			// Without node churn every launched duplicate resolves as a win
			// or as wasted work, exactly once.
			if res.SpeculativeWins+res.SpeculativeWasted != res.SpeculativeLaunches {
				t.Fatalf("speculation leak: %d wins + %d wasted != %d launches",
					res.SpeculativeWins, res.SpeculativeWasted, res.SpeculativeLaunches)
			}
			loss := spec.ProbeLoss + spec.ReplyLoss + spec.AssignLoss
			if loss > 0 && res.MessagesDropped.Total() == 0 {
				t.Error("lossy run dropped no messages")
			}
			if loss == 0 && spec.StealLoss == 0 && res.MessagesDropped.Total() != 0 {
				t.Errorf("loss-free run dropped %d messages", res.MessagesDropped.Total())
			}
		})
	}
}

// A fault-free config reports no fault counters at all: the MessagesDropped
// pointer stays nil so reports serialize byte-identically to runs that
// predate the fault plane.
func TestFaultFreeReportOmitsCounters(t *testing.T) {
	tr := faultTrace(t)
	res, err := Run(tr, policy.Config{NumNodes: 1200, Policy: "hawk", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped != nil {
		t.Error("fault-free run populated MessagesDropped")
	}
	if res.ProbeRetries != 0 || res.AssignRetries != 0 ||
		res.SpeculativeLaunches != 0 || res.StragglerSlowdowns != 0 {
		t.Error("fault-free run populated fault counters")
	}

	// A spec that injects nothing canonicalizes to nil and must produce the
	// identical report.
	same, err := Run(tr, policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 9,
		Faults: &policy.FaultSpec{MaxRetries: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if same.Makespan != res.Makespan || same.TasksExecuted != res.TasksExecuted {
		t.Error("inject-nothing spec changed the run")
	}
}

// Retry defenses engage under heavy probe loss: every dropped message times
// out and re-sends (the send after the last lossy retry is reliable, so no
// chain is abandoned), and every job completes.
func TestFaultDefensesEngage(t *testing.T) {
	tr := faultTrace(t)
	res, err := Run(tr, policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 3,
		Faults: &policy.FaultSpec{ProbeLoss: 0.6, ReplyLoss: 0.6, MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped.Probes == 0 || res.MessagesDropped.Replies == 0 {
		t.Errorf("drop accounting: %+v", *res.MessagesDropped)
	}
	if d := res.MessagesDropped; res.ProbeRetries != d.Probes+d.Replies {
		t.Errorf("%d probe retries for %d dropped probes and %d replies; every drop re-sends",
			res.ProbeRetries, d.Probes, d.Replies)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
}

// Under total message loss every lossy send is dropped and the send after
// the last retry is reliable, so every job completes and each counter is an
// exact multiple of the sends it shadows: each probe, each probe's reply
// round trip and each assignment is dropped MaxRetries+1 times. A dropped
// probe is re-sent to the node it was addressed to, so the run sends as many
// probes as the loss-free one.
func TestTotalLossCompletes(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 40, MeanInterArrival: 0.5, Seed: 11,
	})
	tasks := 0
	for _, j := range tr.Jobs {
		tasks += j.NumTasks()
	}
	spec := policy.UniformLoss(1)
	spec.MaxRetries = 2
	r := int64(spec.MaxRetries)
	for _, pol := range []string{"sparrow", "hawk", "centralized"} {
		t.Run(pol, func(t *testing.T) {
			cfg := policy.Config{NumNodes: 300, Policy: pol, Seed: 1}
			clean, err := Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = &spec
			res, err := Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != tr.Len() || res.TasksExecuted != int64(tasks) {
				t.Fatalf("completed %d of %d jobs, executed %d of %d tasks", len(res.Jobs), tr.Len(), res.TasksExecuted, tasks)
			}
			d := res.MessagesDropped
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				// A dropped probe is re-sent to the node it was addressed
				// to, so loss cannot move how many probes a job sends.
				{"probes sent", res.ProbesSent, clean.ProbesSent},
				{"dropped probes", d.Probes, (r + 1) * res.ProbesSent},
				{"dropped replies", d.Replies, d.Probes},
				{"dropped assigns", d.Assigns, (r + 1) * res.CentralAssigns},
				{"probe retries", res.ProbeRetries, d.Probes + d.Replies},
				{"assign retries", res.AssignRetries, d.Assigns},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
				}
			}
			t.Logf("probes sent %d; dropped probes %d, replies %d, assigns %d (central assigns %d)",
				res.ProbesSent, d.Probes, d.Replies, d.Assigns, res.CentralAssigns)
		})
	}
}

// Straggler semantics: a slowdown mid-task stretches the remaining work, a
// recovery (Factor 1) never retroactively shrinks an in-flight task, and
// subsequent tasks run at the node's current factor.
func TestStragglerStretchesInFlight(t *testing.T) {
	one := func(dur float64) *workload.Trace {
		return &workload.Trace{
			Name: "one", Cutoff: 1e9, ShortPartitionFraction: 0.5,
			Jobs: []*workload.Job{{ID: 0, SubmitTime: 0, Durations: []float64{dur}}},
		}
	}

	// Slow every node at t=10, factor 4: the single 100 s task has ~90 s
	// left, which stretches to ~360 s.
	slow, err := Run(one(100), policy.Config{
		NumNodes: 4, Policy: "sparrow", Seed: 1,
		Faults: &policy.FaultSpec{Stragglers: []policy.StragglerEvent{{At: 10, Count: 4, Factor: 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := slow.Jobs[0].Runtime; res < 350 || res > 380 {
		t.Errorf("stretched runtime %v, want ~370", res)
	}
	if slow.StragglerSlowdowns != 4 {
		t.Errorf("StragglerSlowdowns = %d, want 4", slow.StragglerSlowdowns)
	}

	// Ending a slowdown mid-task (factor 8 at t=0, factor 1 at t=10) must
	// not shrink the in-flight task below its already-committed stretch.
	recovered, err := Run(one(100), policy.Config{
		NumNodes: 4, Policy: "sparrow", Seed: 1,
		Faults: &policy.FaultSpec{Stragglers: []policy.StragglerEvent{
			{At: 0, Count: 4, Factor: 8},
			{At: 10, Count: 4, Factor: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := recovered.Jobs[0].Runtime; res < 790 {
		t.Errorf("runtime %v: recovery retroactively shrank an in-flight task", res)
	}
}

// Speculation first-completion-wins: on a cluster where a third of the
// nodes straggle, duplicates launched on healthy nodes finish first and the
// stragglers' copies are cancelled, improving aggregate job runtime. (The
// absolute makespan is not asserted: a one-shot duplicate placed on a
// random node can itself land on a straggler or queue behind stretched
// work, so the worst single job is not guaranteed to be rescued.)
func TestSpeculationBoundsStraggler(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 120, MeanInterArrival: 0.5, Seed: 4,
	})
	spec := policy.FaultSpec{
		Stragglers: []policy.StragglerEvent{{At: 5, Count: 300, Factor: 20}},
	}
	cfg := policy.Config{NumNodes: 900, Policy: "sparrow", Seed: 2, Faults: &spec}
	plain, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sspec := spec
	sspec.Speculate = true
	sspec.SpeculatePercentile = 90
	scfg := cfg
	scfg.Faults = &sspec
	spedUp, err := Run(tr, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if spedUp.SpeculativeLaunches == 0 || spedUp.SpeculativeWins == 0 {
		t.Fatalf("speculation idle: %d launches, %d wins",
			spedUp.SpeculativeLaunches, spedUp.SpeculativeWins)
	}
	mean := func(r *policy.Report) float64 {
		var sum float64
		for _, j := range r.Jobs {
			sum += j.Runtime
		}
		return sum / float64(len(r.Jobs))
	}
	if m, p := mean(spedUp), mean(plain); m >= p {
		t.Errorf("speculation did not help: mean runtime %v vs %v without", m, p)
	}
}

// Faults compose with churn: message loss, stragglers, and speculation
// riding the same run as scripted node failures must still conserve every
// task. A straggling node that then fails returns at nominal speed.
func TestFaultsComposeWithChurn(t *testing.T) {
	tr := faultTrace(t)
	res, err := Run(tr, policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 9,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 40, Kind: policy.ChurnFail, Count: 80},
			{At: 90, Kind: policy.ChurnRecover, Count: 80},
		}},
		Faults: &policy.FaultSpec{
			ProbeLoss: 0.1, ReplyLoss: 0.1, AssignLoss: 0.1, Jitter: 0.02,
			MaxRetries: 8, Speculate: true, SpeculatePercentile: 80,
			Stragglers: []policy.StragglerEvent{{At: 30, Count: 120, Factor: 6}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	seen := make(map[int]bool, len(res.Jobs))
	for _, j := range res.Jobs {
		if seen[j.ID] {
			t.Fatalf("job %d completed twice", j.ID)
		}
		seen[j.ID] = true
	}
	if res.NodeFailures != 80 || res.NodeRecoveries != 80 {
		t.Errorf("failures/recoveries = %d/%d, want 80/80", res.NodeFailures, res.NodeRecoveries)
	}
	// Churn can orphan a duplicate whose record resolved when its original
	// died, so the strict launch balance relaxes to an upper bound.
	if res.SpeculativeWins+res.SpeculativeWasted > res.SpeculativeLaunches {
		t.Errorf("speculation overcount: %d wins + %d wasted > %d launches",
			res.SpeculativeWins, res.SpeculativeWasted, res.SpeculativeLaunches)
	}
}

// Faults compose with the multi-scheduler model: commit-message loss rides
// the claim/commit path and every task still lands exactly once.
func TestFaultsComposeWithSchedulers(t *testing.T) {
	tr := faultTrace(t)
	res, err := Run(tr, policy.Config{
		NumNodes: 1200, Policy: "hawk", Seed: 9,
		Schedulers: &policy.SchedulerSpec{Count: 4, SnapshotInterval: 5},
		Faults: &policy.FaultSpec{
			ProbeLoss: 0.1, ReplyLoss: 0.1, CommitLoss: 0.2, Jitter: 0.02, MaxRetries: 8,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.MessagesDropped.Commits == 0 {
		t.Error("commit loss never dropped a commit")
	}
	if res.CentralAssigns == 0 {
		t.Error("multi-scheduler run placed nothing centrally")
	}
}

// Stragglers and node failures compose without double-counting capacity:
// the feasibility margin comes from ChurnSpec.MaxConcurrentFailures alone.
// A straggling node still holds its slots — it is slow, not gone — so even
// a spec that slows most of the cluster must not shrink the probe pool,
// and a node that straggles and *then* fails consumes exactly one unit of
// margin (its churn failure), not two.
func TestStragglerFeasibilityComposition(t *testing.T) {
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
	// Straggle well over the margin's worth of nodes — including, by
	// construction, nodes the churn script later fails — while failing
	// exactly as many nodes as the margin allows. Only the churn failures
	// count: the run must pass the pre-flight and complete.
	cfg := policy.Config{
		NumNodes: nodes, Policy: "sparrow", Seed: 1,
		Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{
			{At: 30, Kind: policy.ChurnFail, Count: 10},
			{At: 60, Kind: policy.ChurnRecover, Count: 10},
		}},
		Faults: &policy.FaultSpec{Stragglers: []policy.StragglerEvent{
			{At: 5, Count: nodes / 2, Factor: 4},
		}},
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatalf("stragglers fed the feasibility margin: %v", err)
	}
	if len(res.Jobs) != tr.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), tr.Len())
	}
	if res.StragglerSlowdowns != int64(nodes/2) {
		t.Errorf("StragglerSlowdowns = %d, want %d", res.StragglerSlowdowns, nodes/2)
	}
	// One more churn failure exceeds the margin — rejected at admission even
	// though the straggler spec is unchanged, proving the margin tracks
	// churn only and a straggling-then-failing node counts once.
	over := cfg
	over.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 30, Kind: policy.ChurnFail, Count: 11},
	}}
	if _, err := Run(tr, over); err == nil {
		t.Fatal("scenario shrinking the pool below the widest job must be rejected")
	}
}
