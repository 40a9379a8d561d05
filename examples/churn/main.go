// Churn exercises the dynamic cluster model end to end: the same loaded
// trace runs once on a stable cluster and once through a failure scenario
// — a wave of random node failures mid-trace, a central-scheduler outage,
// and a staggered recovery — and the report's churn counters show what the
// re-routing machinery absorbed: probes re-sent, tasks re-executed from
// scratch, executed-but-lost seconds, and central placements parked in the
// backlog while the scheduler was down. Every job still completes; the
// price of the scenario is visible latency, not lost work.
//
// A third run layers the distributed multi-scheduler model (§4.10) on top:
// five schedulers place against stale snapshots while one of them fails and
// recovers mid-trace (ChurnSchedFail / ChurnSchedRecover), and the report's
// conflict counters show the optimistic claim/commit machinery at work.
package main

import (
	"fmt"
	"log"

	"repro/hawk"
	"repro/internal/stats"
)

func main() {
	trace := hawk.Generate(hawk.Google(), hawk.GenConfig{
		NumJobs: 1200, MeanInterArrival: 0.5, Seed: 7,
	})

	cluster := hawk.Config{Policy: "hawk", NumNodes: 3000, Seed: 7}
	stable, err := hawk.Simulate(trace, cluster)
	if err != nil {
		log.Fatalf("stable run failed: %v", err)
	}

	// The scenario: 200 random nodes (6.7% of the cluster) fail at t=100 s
	// while the centralized scheduler goes down; the scheduler returns at
	// t=400 s and the nodes trickle back in two waves.
	scenario := cluster
	scenario.Churn = &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
		{At: 100, Kind: hawk.ChurnFail, Count: 200},
		{At: 100, Kind: hawk.ChurnCentralDown},
		{At: 400, Kind: hawk.ChurnCentralUp},
		{At: 500, Kind: hawk.ChurnRecover, Count: 100},
		{At: 700, Kind: hawk.ChurnRecover, Count: 100},
	}}
	churned, err := hawk.Simulate(trace, scenario)
	if err != nil {
		log.Fatalf("churn run failed: %v", err)
	}

	// The multi-scheduler scenario: five concurrent schedulers with 30 s
	// snapshot staleness, scheduler 2 failing at t=150 s and rejoining at
	// t=450 s. Jobs it owned re-hash to the survivors.
	scenario = cluster
	scenario.Schedulers = &hawk.SchedulerSpec{Count: 5, SnapshotInterval: 30}
	scenario.Churn = &hawk.ChurnSpec{Events: hawk.SchedulerChurn(2, 150, 450)}
	multi, err := hawk.Simulate(trace, scenario)
	if err != nil {
		log.Fatalf("multi-scheduler run failed: %v", err)
	}

	for _, run := range []struct {
		label string
		res   *hawk.Report
	}{{"stable", stable}, {"churn ", churned}, {"multi ", multi}} {
		res := run.res
		fmt.Printf("%s  short p50 %7.1fs p90 %7.1fs | long p50 %7.1fs | makespan %6.0fs\n",
			run.label,
			stats.Percentile(res.ShortRuntimes(), 50), stats.Percentile(res.ShortRuntimes(), 90),
			stats.Percentile(res.LongRuntimes(), 50), res.Makespan)
	}
	fmt.Println()
	fmt.Printf("scenario damage absorbed (all %d jobs still completed):\n", len(churned.Jobs))
	fmt.Printf("  node failures/recoveries: %d/%d\n", churned.NodeFailures, churned.NodeRecoveries)
	fmt.Printf("  probes lost & re-sent:    %d\n", churned.ProbesLost)
	fmt.Printf("  tasks re-executed:        %d (%.0f s of execution thrown away)\n",
		churned.TasksReexecuted, churned.WorkLostSeconds)
	fmt.Printf("  central backlog:          %d placements deferred over a %.0f s outage\n",
		churned.CentralDeferred, churned.CentralOutageSeconds)

	outageShort := churned.OutageShortRuntimes()
	if len(outageShort) > 0 {
		fmt.Printf("  short jobs submitted during the outage: p50 %.1fs (stealing keeps them flowing)\n",
			stats.Percentile(outageShort, 50))
	}

	fmt.Println()
	fmt.Printf("multi-scheduler run (5 schedulers, one failing mid-trace):\n")
	fmt.Printf("  placement conflicts/retries: %d/%d over %d central assigns\n",
		multi.PlacementConflicts, multi.ConflictRetries, multi.CentralAssigns)
	fmt.Printf("  snapshot refreshes:          %d (%.0f s of staleness at commit)\n",
		multi.SnapshotRefreshes, multi.SnapshotStalenessSeconds)
	fmt.Printf("  scheduler failures/recoveries: %d/%d, %d placements re-assigned\n",
		multi.SchedulerFailures, multi.SchedulerRecoveries, multi.SchedulerReassigned)
}
