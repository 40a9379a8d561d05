package hawk_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/hawk"
)

func smallTrace() *hawk.Trace {
	// Durations in milliseconds-as-seconds so the live engine finishes
	// fast; cutoff separates job 3 as long.
	return &hawk.Trace{
		Name: "small",
		Jobs: []*hawk.Job{
			{ID: 1, SubmitTime: 0, Durations: []float64{0.010, 0.020, 0.030}},
			{ID: 2, SubmitTime: 0, Durations: []float64{0.005}},
			{ID: 3, SubmitTime: 0.01, Durations: []float64{2.0, 2.0}},
			{ID: 4, SubmitTime: 0.02, Durations: []float64{0.015, 0.015}},
		},
		Cutoff:                 0.5,
		ShortPartitionFraction: 0.2,
	}
}

// Both engines consume the same Config and produce the same Report schema.
func TestEnginesShareConfigAndReport(t *testing.T) {
	trace := smallTrace()
	cfg := hawk.Config{
		Policy: "hawk", NumNodes: 20, Seed: 1,
		Schedulers:   &hawk.SchedulerSpec{Count: 3},
		NetworkDelay: (50 * time.Microsecond).Seconds(),
	}

	simRep, err := hawk.Simulate(trace, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	liveRep, err := hawk.RunLive(trace, cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}

	for _, rep := range []*hawk.Report{simRep, liveRep} {
		if rep.Policy != "hawk" {
			t.Errorf("%s report policy = %q", rep.Engine, rep.Policy)
		}
		if len(rep.Jobs) != trace.Len() {
			t.Errorf("%s report has %d jobs, want %d", rep.Engine, len(rep.Jobs), trace.Len())
		}
		if rep.TasksExecuted != 8 {
			t.Errorf("%s executed %d tasks, want 8", rep.Engine, rep.TasksExecuted)
		}
		if rep.Config.NumNodes != 20 {
			t.Errorf("%s report lost the requested node count: %d", rep.Engine, rep.Config.NumNodes)
		}
	}
	if simRep.Engine != "sim" || liveRep.Engine != "live" {
		t.Errorf("engine labels = %q/%q", simRep.Engine, liveRep.Engine)
	}

	// Both engines agree on classification for the same trace and cutoff.
	for _, rep := range []*hawk.Report{simRep, liveRep} {
		if n := len(rep.LongRuntimes()); n != 1 {
			t.Errorf("%s classified %d jobs long, want 1", rep.Engine, n)
		}
	}
}

// Engine is a common function type: drivers can be written once.
func TestEngineFuncType(t *testing.T) {
	trace := smallTrace()
	engines := map[string]hawk.Engine{"sim": hawk.Simulate, "live": hawk.RunLive}
	for name, run := range engines {
		rep, err := run(trace, hawk.Config{
			Policy: "sparrow", NumNodes: 20, Seed: 1,
			NetworkDelay: (50 * time.Microsecond).Seconds(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Engine != name {
			t.Errorf("engine %q reported as %q", name, rep.Engine)
		}
	}
}

// RunSweep fans independent runs over a worker pool; results come back in
// point order and match serial Simulate calls exactly.
func TestRunSweepMatchesSerialSimulate(t *testing.T) {
	trace := smallTrace()
	var pts []hawk.SweepPoint
	for _, pol := range []string{"sparrow", "hawk", "centralized", "split"} {
		pts = append(pts, hawk.SweepPoint{
			Trace:  trace,
			Config: hawk.Config{Policy: pol, NumNodes: 20, Seed: 9},
		})
	}
	reports, err := hawk.RunSweep(context.Background(), hawk.Sweep{Points: pts, Jobs: 4})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(reports) != len(pts) {
		t.Fatalf("reports = %d, want %d", len(reports), len(pts))
	}
	for i, p := range pts {
		want, err := hawk.Simulate(p.Trace, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Errorf("point %d (%s): sweep report differs from serial Simulate", i, p.Config.Policy)
		}
	}
}

// A Sweep accepts any Engine, including the live prototype and custom fakes.
func TestSweepCustomEngine(t *testing.T) {
	calls := 0
	var eng hawk.Engine = func(tr *hawk.Trace, cfg hawk.Config) (*hawk.Report, error) {
		calls++
		return &hawk.Report{Engine: "fake"}, nil
	}
	reports, err := hawk.RunSweep(context.Background(), hawk.Sweep{
		Points: []hawk.SweepPoint{{Trace: smallTrace(), Config: hawk.Config{Policy: "hawk", NumNodes: 5}}},
		Engine: eng,
		Jobs:   1,
	})
	if err != nil || calls != 1 || reports[0].Engine != "fake" {
		t.Fatalf("custom engine: reports=%v calls=%d err=%v", reports, calls, err)
	}
}

func TestDeriveSeedReExport(t *testing.T) {
	if hawk.DeriveSeed(1, 0) == hawk.DeriveSeed(1, 1) {
		t.Error("adjacent indices should derive different seeds")
	}
	pts := hawk.SeededPoints(smallTrace(), hawk.Config{Policy: "hawk", NumNodes: 5}, 3, 4)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Config.Seed != hawk.DeriveSeed(3, i) {
			t.Errorf("point %d seed = %d", i, p.Config.Seed)
		}
	}
}

// The scenario surface is part of the public API: a churn spec built from
// the re-exported types runs on both engines, and the churn counters come
// back through the shared Report schema.
func TestScenarioAPIOnBothEngines(t *testing.T) {
	tr := smallTrace()
	cfg := hawk.Config{
		Policy: "hawk", NumNodes: 20, Seed: 3,
		Schedulers:    &hawk.SchedulerSpec{Count: 2},
		NetworkDelay:  0.0001,
		Heterogeneity: &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: 0.5, Speed: 0.5}}},
		Churn: &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
			{At: 0.05, Kind: hawk.ChurnFail, Count: 3},
			{At: 0.2, Kind: hawk.ChurnRecover, Count: 3},
		}},
	}
	for name, engine := range map[string]hawk.Engine{"sim": hawk.Simulate, "live": hawk.RunLive} {
		res, err := engine(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Jobs) != tr.Len() {
			t.Fatalf("%s: completed %d of %d jobs", name, len(res.Jobs), tr.Len())
		}
		if res.NodeFailures != 3 || res.NodeRecoveries != 3 {
			t.Errorf("%s: failures/recoveries = %d/%d, want 3/3", name, res.NodeFailures, res.NodeRecoveries)
		}
	}
}

// A config whose scenario could starve a probe pool is rejected by either
// engine: the simulator when it admits the first job the margin leaves no
// room for, the live engine before the run starts.
func TestScenarioFeasibilityRejected(t *testing.T) {
	tr := smallTrace()
	cfg := hawk.Config{
		Policy: "sparrow", NumNodes: 4, Seed: 1,
		Churn: &hawk.ChurnSpec{Events: []hawk.ChurnEvent{{At: 0.01, Kind: hawk.ChurnFail, Count: 3}}},
	}
	if _, err := hawk.Simulate(tr, cfg); err == nil {
		t.Error("sim accepted a pool-starving scenario")
	}
	if _, err := hawk.RunLive(tr, cfg); err == nil {
		t.Error("live accepted a pool-starving scenario")
	}
}

// So is the fault plane: UniformLoss is the one-call spec for a lossy
// network, every job still completes, and the drops come back per message
// class through the shared Report schema.
func TestUniformLossDropsEveryClass(t *testing.T) {
	trace := hawk.Generate(hawk.Google(), hawk.GenConfig{NumJobs: 300, MeanInterArrival: 1, Seed: 3})
	loss := hawk.UniformLoss(0.05)
	res, err := hawk.Simulate(trace, hawk.Config{Policy: "hawk", NumNodes: 2000, Seed: 4, Faults: &loss})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != trace.Len() {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), trace.Len())
	}
	d := res.MessagesDropped
	if d == nil || d.Probes == 0 || d.Replies == 0 || d.Steals == 0 || d.Assigns == 0 {
		t.Errorf("a 5%% lossy plane dropped %+v; want drops in every single-scheduler class", d)
	}
}
