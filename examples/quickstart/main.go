// Quickstart: generate a small heterogeneous workload, schedule it with
// Hawk and with Sparrow in the trace-driven simulator, and compare the job
// runtime percentiles — the paper's headline comparison in miniature.
//
// Everything here goes through the public repro/hawk API: a policy is
// named in the Config (one of the four hawk.Policies lists), both runs
// share one Config shape, and results come back as the engine-agnostic
// Report.
package main

import (
	"fmt"
	"log"

	"repro/hawk"
)

func main() {
	// A 4000-job synthetic Google-like trace: ~10% long jobs holding
	// ~80% of the work, Poisson arrivals.
	trace := hawk.Generate(hawk.Google(), hawk.GenConfig{
		NumJobs:          4000,
		MeanInterArrival: 2.3,
		Seed:             1,
	})
	st := hawk.ComputeStats(trace, trace.Cutoff)
	fmt.Printf("workload: %d jobs, %d tasks; long jobs: %.1f%% of jobs, %.1f%% of task-seconds\n\n",
		st.TotalJobs, st.TotalTasks, st.PctLongJobs, st.PctLongTaskSeconds)

	// A 15000-node cluster is highly loaded (but not saturated) under
	// this arrival rate — the regime where scheduling policy matters most.
	for _, policy := range []string{"sparrow", "hawk"} {
		res, err := hawk.Simulate(trace, hawk.Config{Policy: policy, NumNodes: 15000, Seed: 1})
		if err != nil {
			log.Fatalf("simulation failed: %v", err)
		}
		fmt.Printf("%-8s short jobs: p50=%7.0fs p90=%7.0fs | long jobs: p50=%7.0fs p90=%7.0fs\n",
			res.Policy, res.Percentile(false, 50), res.Percentile(false, 90),
			res.Percentile(true, 50), res.Percentile(true, 90))
		if policy == "hawk" {
			fmt.Printf("         stealing: %d successful steals moved %d queued entries\n",
				res.StealSuccesses, res.EntriesStolen)
		}
	}
	fmt.Println("\nHawk keeps short jobs fast under load by reserving a small partition,")
	fmt.Println("scheduling long jobs centrally, and stealing short tasks stuck behind long ones.")
}
