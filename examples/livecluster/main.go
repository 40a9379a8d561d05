// Livecluster runs the goroutine-based prototype — real node-monitor
// goroutines exchanging probe/steal messages and sleeping for task
// durations — on a scaled Google sample, the way the paper runs its Spark
// prototype on a 100-node cluster (§4.10).
//
// Durations are scaled down so the demo completes in under a minute; pass
// -jobs/-scale to trade fidelity for time.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/hawk"
	"repro/internal/stats"
)

var (
	jobsFlag  = flag.Int("jobs", 300, "jobs in the scaled Google sample")
	nodesFlag = flag.Int("nodes", 100, "node-monitor goroutines")
	scaleFlag = flag.Float64("scale", 2e-4, "task-duration scale factor (1e-3 = paper's sec->ms)")
	loadFlag  = flag.Float64("load", 1.2, "mean inter-arrival as a multiple of mean task runtime")
	seedFlag  = flag.Int64("seed", 42, "random seed")
)

func main() {
	flag.Parse()

	// Build the prototype trace the way the paper does (§4.1): sample the
	// Google workload, cap job widths for the small cluster while keeping
	// task-seconds constant, scale durations down.
	full := hawk.Generate(hawk.Google(), hawk.GenConfig{
		NumJobs:          *jobsFlag,
		MeanInterArrival: 1,
		Seed:             *seedFlag,
	})
	trace := full.CapTasks(*nodesFlag/3).Scale(*scaleFlag, 1)
	trace = trace.WithArrivals(*loadFlag*trace.MeanTaskDuration(), *seedFlag)

	fmt.Printf("live cluster: %d nodes, %d jobs, load factor %.2f\n", *nodesFlag, trace.Len(), *loadFlag)
	fmt.Printf("mean task runtime: %.1f ms; trace spans %.1f s\n\n",
		1000*trace.MeanTaskDuration(), trace.MakespanLowerBound())

	for _, policy := range []string{"sparrow", "hawk"} {
		res, err := hawk.RunLive(trace, hawk.Config{
			Policy: policy, NumNodes: *nodesFlag, Seed: *seedFlag,
			Schedulers: &hawk.SchedulerSpec{Count: 10},
		})
		if err != nil {
			log.Fatalf("live run failed: %v", err)
		}
		short := stats.Summarize(res.ShortRuntimes())
		long := stats.Summarize(res.LongRuntimes())
		fmt.Printf("%-8s wall clock %6.1fs | short p50=%6.0fms p90=%6.0fms | long p50=%6.0fms p90=%6.0fms\n",
			res.Policy, res.Makespan,
			1000*short.P50, 1000*short.P90, 1000*long.P50, 1000*long.P90)
		if policy == "hawk" {
			fmt.Printf("         steals: %d attempts, %d successes, %d entries moved\n",
				res.StealAttempts, res.StealSuccesses, res.EntriesStolen)
		}
	}
}
