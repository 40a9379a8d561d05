package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// TestSingleSchedulerEquivalence pins the tentpole's compatibility promise:
// Config.Schedulers with Count == 1 (and no scheduler churn) is canonicalized
// away by Normalize, so an N=1 run is byte-identical to a run that never
// mentioned schedulers — compared here against the committed hawk golden, not
// a freshly generated one, so a drift in either the canonicalization or the
// engine fails the test.
func TestSingleSchedulerEquivalence(t *testing.T) {
	trace := goldenTrace()
	cfg := policy.Config{NumNodes: 1200, Seed: 9, Policy: "hawk"}
	cfg.Schedulers = &policy.SchedulerSpec{Count: 1}
	res, err := runPinned(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := marshalPinned(t, res)
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "hawk.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("schedulers=1 run differs from the single-scheduler golden; " +
			"N=1 must stay byte-identical to the model being off")
	}
	if res.Report.PlacementConflicts != 0 || res.Report.SnapshotRefreshes != 0 {
		t.Fatalf("schedulers=1 run reported multi-scheduler counters: conflicts=%d refreshes=%d",
			res.Report.PlacementConflicts, res.Report.SnapshotRefreshes)
	}
}

// multiSchedConfig is a contended operating point: few central servers per
// scheduler and a long snapshot interval, so concurrent schedulers place
// against visibly stale state and collide.
func multiSchedConfig(count int) policy.Config {
	cfg := policy.Config{NumNodes: 1200, Seed: 9, Policy: "hawk"}
	cfg.Schedulers = &policy.SchedulerSpec{Count: count, SnapshotInterval: 10}
	return cfg
}

func TestMultiSchedulerConflictAccounting(t *testing.T) {
	trace := goldenTrace()
	res, err := Run(trace, multiSchedConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(trace.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(trace.Jobs))
	}
	if res.PlacementConflicts == 0 {
		t.Fatal("8 schedulers on stale snapshots produced zero placement conflicts; " +
			"the claim path cannot be exercising contention")
	}
	// Every conflict either retries or (past the retry budget) forces a refresh,
	// so retries can never exceed conflicts.
	if res.ConflictRetries > res.PlacementConflicts {
		t.Fatalf("retries %d > conflicts %d", res.ConflictRetries, res.PlacementConflicts)
	}
	if res.SnapshotRefreshes == 0 {
		t.Fatal("no snapshot refreshes recorded")
	}
	if res.SnapshotStalenessSeconds < 0 {
		t.Fatalf("negative staleness %g", res.SnapshotStalenessSeconds)
	}
	if res.CentralAssigns == 0 {
		t.Fatal("no central placements committed")
	}
	// Commits and conflicts partition placement attempts: conflicted
	// assigns are not counted as CentralAssigns.
	if res.SchedulerFailures != 0 || res.SchedulerRecoveries != 0 || res.SchedulerReassigned != 0 {
		t.Fatalf("churn-free run reported scheduler churn: fail=%d recover=%d reassign=%d",
			res.SchedulerFailures, res.SchedulerRecoveries, res.SchedulerReassigned)
	}
}

// TestMultiSchedulerDeterminism: the model must stay a pure function of
// (trace, config, seed) — two identical runs, identical bytes.
func TestMultiSchedulerDeterminism(t *testing.T) {
	trace := goldenTrace()
	a, err := runPinned(trace, multiSchedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPinned(trace, multiSchedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalPinned(t, a), marshalPinned(t, b)) {
		t.Fatal("two identical multi-scheduler runs produced different reports")
	}
}

// TestSchedulerChurn scripts a mid-trace scheduler failure and recovery:
// the run must complete, with the failure's work re-hashed to the survivor
// and the recovery counted.
func TestSchedulerChurn(t *testing.T) {
	trace := goldenTrace()
	cfg := multiSchedConfig(2)
	cfg.Churn = &policy.ChurnSpec{Events: policy.SchedulerChurn(1, 20, 60)}
	res, err := Run(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(trace.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(trace.Jobs))
	}
	if res.SchedulerFailures != 1 || res.SchedulerRecoveries != 1 {
		t.Fatalf("expected 1 failure + 1 recovery, got fail=%d recover=%d",
			res.SchedulerFailures, res.SchedulerRecoveries)
	}
	if res.SchedulerReassigned == 0 {
		t.Fatal("a 40 s scheduler outage mid-trace re-assigned no jobs")
	}
}

// TestAllSchedulersDown scripts a window with zero live schedulers: jobs
// submitted inside it park and drain on the recovery, and the run still
// completes.
func TestAllSchedulersDown(t *testing.T) {
	trace := goldenTrace()
	cfg := multiSchedConfig(2)
	cfg.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 20, Kind: policy.ChurnSchedFail, Node: 0},
		{At: 20, Kind: policy.ChurnSchedFail, Node: 1},
		{At: 50, Kind: policy.ChurnSchedRecover, Node: 0},
		{At: 50, Kind: policy.ChurnSchedRecover, Node: 1},
	}}
	res, err := Run(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(trace.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(trace.Jobs))
	}
	if res.SchedulerFailures != 2 || res.SchedulerRecoveries != 2 {
		t.Fatalf("expected 2 failures + 2 recoveries, got fail=%d recover=%d",
			res.SchedulerFailures, res.SchedulerRecoveries)
	}
}

// TestSchedulerChurnWithNodeChurn combines scheduler churn with node
// membership churn: per-scheduler snapshot views, stale-member conflicts,
// and probe re-sends all interleave, and the run must still complete
// deterministically.
func TestSchedulerChurnWithNodeChurn(t *testing.T) {
	trace := goldenTrace()
	cfg := multiSchedConfig(4)
	cfg.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 15, Kind: policy.ChurnFail, Count: 80},
		{At: 25, Kind: policy.ChurnSchedFail, Node: 2},
		{At: 55, Kind: policy.ChurnRecover, Count: 60},
		{At: 70, Kind: policy.ChurnSchedRecover, Node: 2},
	}}
	run := func() []byte {
		res, err := runPinned(trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.Jobs) != len(trace.Jobs) {
			t.Fatalf("completed %d of %d jobs", len(res.Report.Jobs), len(trace.Jobs))
		}
		return marshalPinned(t, res)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("combined scheduler+node churn run is not deterministic")
	}
}

// Probes sample the live membership, however stale a scheduler's snapshot:
// half the cluster fails before the first job arrives, and no scheduler
// refreshes during the run, yet no probe is addressed to a dead node — the
// live engine's rule (liverun's cluster.route).
func TestProbesSampleLiveMembershipUnderStaleSchedulers(t *testing.T) {
	var jobs []*workload.Job
	for i := range 200 {
		jobs = append(jobs, job(i, 1+float64(i)*0.05, 1, 1, 1, 1))
	}
	cfg := policy.Config{NumNodes: 200, Seed: 3, Policy: "sparrow"}
	cfg.Schedulers = &policy.SchedulerSpec{Count: 4, SnapshotInterval: 1e4}
	cfg.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{{At: 0.5, Kind: policy.ChurnFail, Count: 100}}}
	res := mustRun(t, tinyTrace(jobs...), cfg)
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(jobs))
	}
	if res.ProbesLost != 0 {
		t.Errorf("ProbesLost = %d of %d probes sent, want 0: probes went to nodes that had failed", res.ProbesLost, res.ProbesSent)
	}
}

// TestMultiSchedulerConflictScaling: more schedulers on the same workload
// must see at least as much staleness-induced conflict pressure — the
// qualitative §4.10 shape the scheduler-count sweep reproduces.
func TestMultiSchedulerConflictScaling(t *testing.T) {
	trace := goldenTrace()
	one, err := Run(trace, multiSchedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(trace, multiSchedConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if many.PlacementConflicts < one.PlacementConflicts {
		t.Fatalf("16 schedulers conflicted less than 2 (%d < %d)",
			many.PlacementConflicts, one.PlacementConflicts)
	}
}
