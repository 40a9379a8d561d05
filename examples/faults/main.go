// Faults exercises the gray-failure plane end to end: the same loaded
// trace runs once on a clean network, once through a lossy/jittery RPC
// plane (2% i.i.d. loss on every message class plus delay jitter), and
// once through a scripted straggler wave with speculative re-execution
// armed. The report's fault counters show what the defenses absorbed:
// drops per message class, timeout/backoff retry chains, and duplicate
// launches racing stragglers. A message dropped on every retry is re-sent
// once more, reliably, so every job still completes; the price of a gray
// failure is visible latency, not a hang.
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
	clean, err := hawk.Simulate(trace, cluster)
	if err != nil {
		log.Fatalf("clean run failed: %v", err)
	}

	// The lossy scenario: every message class drops i.i.d. at 2%, and
	// delivered messages pick up to 1 ms of extra delay. MaxRetries 8
	// keeps a full retry-chain exhaustion (p^9) out of reach, so the
	// damage shows up as retries and latency.
	plane := hawk.UniformLoss(0.02)
	plane.Jitter, plane.MaxRetries = 0.001, 8
	scenario := cluster
	scenario.Faults = &plane
	lossy, err := hawk.Simulate(trace, scenario)
	if err != nil {
		log.Fatalf("lossy run failed: %v", err)
	}

	// The straggler scenario: 300 nodes (10% of the cluster) silently slow
	// down 8x at t=100 s and recover at t=600 s, with speculative
	// re-execution duplicating any probe-scheduled task still running past
	// the 95th percentile of its job's task durations.
	scenario = cluster
	scenario.Faults = &hawk.FaultSpec{
		Stragglers: []hawk.StragglerEvent{
			{At: 100, Count: 300, Factor: 8},
			{At: 600, Count: 300, Factor: 1},
		},
		Speculate: true, SpeculatePercentile: 95,
	}
	straggle, err := hawk.Simulate(trace, scenario)
	if err != nil {
		log.Fatalf("straggler run failed: %v", err)
	}

	for _, run := range []struct {
		label string
		res   *hawk.Report
	}{{"clean   ", clean}, {"lossy   ", lossy}, {"straggle", straggle}} {
		res := run.res
		fmt.Printf("%s  short p50 %7.1fs p90 %7.1fs | long p50 %7.1fs | makespan %6.0fs\n",
			run.label,
			stats.Percentile(res.ShortRuntimes(), 50), stats.Percentile(res.ShortRuntimes(), 90),
			stats.Percentile(res.LongRuntimes(), 50), res.Makespan)
	}

	fmt.Println()
	d := lossy.MessagesDropped
	fmt.Printf("lossy plane absorbed (all %d jobs still completed):\n", len(lossy.Jobs))
	fmt.Printf("  messages dropped:   %d (probes %d, replies %d, steals %d, assigns %d, commits %d)\n",
		d.Total(), d.Probes, d.Replies, d.Steals, d.Assigns, d.Commits)
	fmt.Printf("  timeouts fired:     %d probe + %d assign, each re-sent after backoff\n",
		lossy.ProbeRetries, lossy.AssignRetries)

	fmt.Println()
	fmt.Printf("straggler wave (%d slowdowns applied):\n", straggle.StragglerSlowdowns)
	fmt.Printf("  speculative launches: %d — %d won the race (original cancelled), %d wasted\n",
		straggle.SpeculativeLaunches, straggle.SpeculativeWins, straggle.SpeculativeWasted)
}
