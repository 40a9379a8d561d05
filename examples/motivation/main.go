// Motivation reproduces the paper's §2.3 motivation in miniature: on a
// highly loaded cluster with a heterogeneous *workload* (a mix of short
// and long jobs — not heterogeneous hardware; for per-node speed factors
// see Config.Heterogeneity), a purely distributed
// scheduler (Sparrow) lets short jobs queue behind long ones, inflating
// their runtimes by orders of magnitude — even though idle servers exist.
//
// This is the experiment behind Figure 1.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/hawk"
	"repro/internal/stats"
)

func main() {
	// §2.3: 1000 jobs on 15000 nodes. 95% short jobs (100 tasks x 100 s),
	// 5% long jobs (1000 tasks x 20000 s), Poisson arrivals, mean 50 s.
	trace := hawk.MotivationWorkload(7)

	for _, policy := range []string{"sparrow", "hawk"} {
		res, err := hawk.Simulate(trace, hawk.Config{Policy: policy, NumNodes: 15000, Seed: 7})
		if err != nil {
			log.Fatalf("simulation failed: %v", err)
		}
		short := res.ShortRuntimes()
		fmt.Printf("%s:\n", res.Policy)
		fmt.Printf("  median utilization: %.1f%%  (enough idle servers for any short job)\n",
			100*res.Utilization.MedianUpTo(trace.MakespanLowerBound()))
		fmt.Printf("  short jobs over 15000 s: %.1f%%  (execution time is just 100 s)\n",
			100*(1-stats.FractionAtOrBelow(short, 15000)))
		fmt.Println("  CDF of short-job runtime:")
		plotCDF(stats.CDF(short))
		fmt.Println()
	}
}

// plotCDF renders a small ASCII CDF like Figure 1.
func plotCDF(points []stats.CDFPoint) {
	const width = 50
	marks := []float64{100, 500, 1000, 2500, 5000, 10000, 15000, 20000, 25000, 30000}
	for _, m := range marks {
		frac := stats.CDFAt(points, m)
		bar := strings.Repeat("#", int(frac*width))
		fmt.Printf("  %7.0fs |%-*s| %5.1f%%\n", m, width, bar, 100*frac)
	}
}
