// Command hawkexp reproduces the paper's tables and figures. Each
// experiment prints the rows or curve series the paper reports (README
// "Commands").
//
// Usage:
//
//	hawkexp -list
//	hawkexp -exp fig5 [-numjobs 20000] [-seed 42] [-runs 10]
//	hawkexp -exp fig6 -jobs 8    # fan the sweep over 8 workers
//	hawkexp -exp all -quick
//	hawkexp -exp fig5 -trace google.trace.gz   # replay a recorded trace
//
// Recording is hawkgen's job: hawkgen -workload google -jobs N -seed S -out
// google.trace.gz writes the trace a hawkexp run at -numjobs N -seed S
// generates.
//
// Every experiment is a sweep of independent simulations, fanned out over
// a bounded worker pool (Scale.Workers in internal/experiments); -jobs
// bounds the pool, make style, and defaults to one worker per CPU. Results
// are byte-identical for any -jobs value.
//
// The scenario flags hawksim takes (-schedulers, -fail-nodes, -msg-loss, …;
// see `hawkexp -h`) overlay that scenario on every simulator run of the
// selected experiment; an experiment that sweeps a scenario dimension
// itself (multisched, faults, robustness, churn) ignores that part of the
// overlay, and one that builds its own fixed configuration (fig1, fig16-17)
// or runs no simulation (table1, table2, fig4) says on stderr which flags it
// ignored. For performance work, -cpuprofile and -memprofile write pprof
// profiles of the whole experiment (inspect with `go tool pprof`):
//
//	hawkexp -exp fig5 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/hawk"
	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// defaults is the scale a run without -quick uses: the -numjobs, -seed and
// -runs defaults.
var defaults = experiments.DefaultScale()

var (
	expFlag     = flag.String("exp", "", "experiment id ("+strings.Join(ids(), ", ")+") or 'all'")
	listFlag    = flag.Bool("list", false, "list experiment ids and exit")
	numJobsFlag = flag.Int("numjobs", defaults.NumJobs, "synthetic trace size in jobs")
	jobsFlag    = flag.Int("jobs", 0, "max concurrent simulations (0 = one per CPU)")
	seedFlag    = flag.Int64("seed", defaults.Seed, "random seed")
	runsFlag    = flag.Int("runs", defaults.Runs, "runs to average where the paper averages (fig14)")
	quickFlag   = flag.Bool("quick", false, "use the reduced quick scale (fewer jobs, fewer runs)")
	policyFlag  = flag.String("policy", "hawk", "candidate policy for the comparison figures; one of: "+strings.Join(hawk.Policies(), ", "))
	traceFlag   = flag.String("trace", "", "replay this recorded hawk-trace file instead of the synthetic Google trace (experiments built on the Google workload)")
	fullProto   = flag.Bool("fullproto", false, "run fig16-17 at the paper's full prototype scale (3300 jobs, sec->ms; takes tens of minutes)")

	// The scenario overlay applied to every simulator run of the selected
	// experiment (see internal/cliflags).
	scenario = cliflags.Register(flag.CommandLine)

	cpuProfFlag = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfFlag = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
)

type experiment struct {
	id   string
	desc string
	run  func(sc experiments.Scale) error
}

func registry() []experiment {
	return []experiment{
		{"table1", "Table 1: long-job and task-second shares per workload", runTable1},
		{"table2", "Table 2: long-job percentage and job counts", runTable2},
		{"fig1", "Figure 1: CDF of short-job runtime under Sparrow, loaded cluster", runFig1},
		{"fig4", "Figure 4: workload property CDFs", runFig4},
		{"fig5", "Figure 5: Hawk vs Sparrow, Google trace, node sweep", runFig5},
		{"fig6", "Figure 6: Hawk vs Sparrow, Cloudera/Facebook/Yahoo", runFig6},
		{"fig7", "Figure 7: component breakdown (ablations)", runFig7},
		{"fig8-9", "Figures 8-9: Hawk vs fully centralized", runFig89},
		{"fig10-11", "Figures 10-11: Hawk vs split cluster", runFig1011},
		{"fig12-13", "Figures 12-13: cutoff sensitivity", runFig1213},
		{"fig14", "Figure 14: mis-estimation sensitivity", runFig14},
		{"fig15", "Figure 15: stealing-attempt cap sensitivity", runFig15},
		{"fig16-17", "Figures 16-17: implementation vs simulation (live prototype)", runFig1617},
		{"ablation-steal", "§3.6 ablation: Figure 3's group stealing vs stealing from random queue positions", runAblationSteal},
		{"ablation-probes", "§4.1 ablation: batch-sampling probe ratio 1-4 (the paper fixes 2)", runAblationProbes},
		{"robustness", "Central-scheduler outage: stealing keeps short jobs flowing (§4 resilience)", runRobustness},
		{"churn", "Rolling node failures: re-execution and lost work under churn", runChurn},
		{"faults", "Message-loss sweep 0-10%: latency degradation under a lossy RPC plane", runFaults},
		{"multisched", "Scheduler-count sweep 1-100: claim conflicts and latency vs distributed schedulers (§4.10)", runMultiSched},
	}
}

// ids lists the registry's experiment ids in -list order.
func ids() []string {
	var out []string
	for _, e := range registry() {
		out = append(out, e.id)
	}
	return out
}

func main() {
	flag.Parse()
	os.Exit(realMain())
}

// realMain holds the body so deferred profile writers run before the
// process exits (os.Exit skips defers in main).
func realMain() int {
	regs := registry()
	if *listFlag || *expFlag == "" {
		fmt.Println("experiments:")
		for _, e := range regs {
			fmt.Printf("  %-9s %s\n", e.id, e.desc)
		}
		if *expFlag == "" && !*listFlag {
			return 2
		}
		return 0
	}
	stopProfiles, err := cliflags.StartProfiles(*cpuProfFlag, *memProfFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawkexp: %v\n", err)
		return 1
	}
	defer stopProfiles()
	if !slices.Contains(hawk.Policies(), *policyFlag) {
		fmt.Fprintf(os.Stderr, "hawkexp: unknown policy %q (one of: %s)\n", *policyFlag, strings.Join(hawk.Policies(), ", "))
		return 2
	}
	sc := experiments.Scale{NumJobs: *numJobsFlag, Seed: *seedFlag, Runs: *runsFlag}
	if *quickFlag {
		// -quick replaces the defaults of -numjobs and -runs, not values
		// given on the command line.
		quick := experiments.QuickScale()
		sc.NumJobs, sc.Runs = quick.NumJobs, quick.Runs
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "numjobs":
				sc.NumJobs = *numJobsFlag
			case "runs":
				sc.Runs = *runsFlag
			}
		})
	}
	sc.TracePath = *traceFlag
	if err := scenario.Apply(&sc.Overlay); err != nil {
		fmt.Fprintf(os.Stderr, "hawkexp: %v\n", err)
		return 2
	}
	overlaid := !reflect.DeepEqual(sc.Overlay, hawk.Config{})
	sc.Overlay.Policy = *policyFlag
	sc.Workers = *jobsFlag
	var toRun []experiment
	for _, e := range regs {
		if *expFlag == "all" || *expFlag == e.id {
			toRun = append(toRun, e)
		}
	}
	if len(toRun) == 0 {
		fmt.Fprintf(os.Stderr, "hawkexp: unknown experiment %q (use -list)\n", *expFlag)
		return 2
	}
	for _, e := range toRun {
		if why := ignoresOverlay(e.id); overlaid && why != "" {
			fmt.Fprintf(os.Stderr, "hawkexp: note: %s %s; ignoring %s\n",
				e.id, why, strings.Join(scenarioFlagsSet(), " "))
		}
		fmt.Printf("=== %s — %s\n", e.id, e.desc)
		start := time.Now()
		if err := e.run(sc); err != nil {
			fmt.Fprintf(os.Stderr, "hawkexp: %s: %v\n", e.id, err)
			return 1
		}
		fmt.Printf("--- %s done in %v\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// ignoresOverlay says why an experiment takes no part of the scenario
// overlay, or "" when its simulator runs take it.
func ignoresOverlay(id string) string {
	switch id {
	case "fig1", "fig16-17":
		return "builds its own fixed configuration"
	case "table1", "table2", "fig4":
		return "runs no simulation"
	}
	return ""
}

// scenarioFlagsSet names the scenario flags given on the command line.
func scenarioFlagsSet() []string {
	shared := flag.NewFlagSet("", flag.ContinueOnError)
	cliflags.Register(shared)
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if shared.Lookup(f.Name) != nil {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

func runTable1(sc experiments.Scale) error {
	rows, err := experiments.Table1(sc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable1(rows))
	return nil
}

func runTable2(sc experiments.Scale) error {
	rows, err := experiments.Table2(sc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable2(rows))
	return nil
}

func runFig1(sc experiments.Scale) error {
	r, err := experiments.Fig1(sc.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("median utilization: %.1f%%  max: %.1f%%\n", 100*r.MedianUtil, 100*r.MaxUtil)
	fmt.Printf("short jobs with runtime > 15000 s: %.1f%%\n", 100*r.FracOver15000s)
	fmt.Println("short-job runtime CDF (runtime s -> cumulative fraction):")
	marks := []float64{100, 1000, 5000, 10000, 15000, 20000, 25000, 30000, 35000}
	for _, m := range marks {
		frac := stats.CDFAt(r.ShortRuntimeCDF, m)
		fmt.Printf("  %7.0f s: %5.1f%%\n", m, 100*frac)
	}
	return nil
}

func runFig4(sc experiments.Scale) error {
	data, err := experiments.Fig4(sc)
	if err != nil {
		return err
	}
	for _, d := range data {
		fmt.Printf("%s:\n", d.Workload)
		fmt.Printf("  long  dur  p50=%.0f p90=%.0f | tasks p50=%.0f p90=%.0f\n",
			cdfPct(d.LongDur, 50), cdfPct(d.LongDur, 90), cdfPct(d.LongTasks, 50), cdfPct(d.LongTasks, 90))
		fmt.Printf("  short dur  p50=%.0f p90=%.0f | tasks p50=%.0f p90=%.0f\n",
			cdfPct(d.ShortDur, 50), cdfPct(d.ShortDur, 90), cdfPct(d.ShortTasks, 50), cdfPct(d.ShortTasks, 90))
	}
	return nil
}

func runFig5(sc experiments.Scale) error {
	pts, err := experiments.Fig5(sc)
	if err != nil {
		return err
	}
	fmt.Printf("nodes  util | short p50 p90 | long p50 p90 | fracImp short long | avgRatio short long  (%s / sparrow)\n", sc.PolicyName())
	for _, p := range pts {
		fmt.Printf("%6.0f %.2f | %.2f %.2f | %.2f %.2f | %.2f %.2f | %.2f %.2f  %s\n",
			p.X, p.BaselineUtil, p.ShortP50, p.ShortP90, p.LongP50, p.LongP90,
			p.FracShortImproved, p.FracLongImproved, p.AvgRatioShort, p.AvgRatioLong,
			bar(p.ShortP50))
	}
	fmt.Printf("(bar: %s/sparrow short p50; '|' marks ratio 1.0 — shorter is better)\n", sc.PolicyName())
	return nil
}

// bar renders a ratio in [0, 1.6] as a small horizontal bar with a tick at
// 1.0, echoing the figures' normalized-to-baseline y-axis.
func bar(ratio float64) string {
	const width = 32
	const tick = 20 // position of ratio 1.0
	if math.IsNaN(ratio) {
		return ""
	}
	n := int(ratio * tick)
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		switch {
		case i == tick:
			b.WriteByte('|')
		case i < n:
			b.WriteByte('#')
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func runFig6(sc experiments.Scale) error {
	series, err := experiments.Fig6(sc)
	if err != nil {
		return err
	}
	for _, s := range series {
		fmt.Printf("%s: nodes util | short p90 | long p90  (%s / sparrow)\n", s.Workload, sc.PolicyName())
		for _, p := range s.Points {
			fmt.Printf("  %6.0f %.2f | %.2f | %.2f\n", p.X, p.BaselineUtil, p.ShortP90, p.LongP90)
		}
	}
	return nil
}

func runFig7(sc experiments.Scale) error {
	rows, err := experiments.Fig7(sc)
	if err != nil {
		return err
	}
	fmt.Println("variant            short p50 p90 | long p50 p90  (normalized to full Hawk)")
	for _, r := range rows {
		fmt.Printf("%-18s %.2f %.2f | %.2f %.2f\n", r.Variant, r.ShortP50, r.ShortP90, r.LongP50, r.LongP90)
	}
	return nil
}

func runFig89(sc experiments.Scale) error {
	pts, err := experiments.Fig8And9(sc)
	if err != nil {
		return err
	}
	fmt.Printf("nodes | short p50 p90 | long p50 p90  (%s / centralized)\n", sc.PolicyName())
	for _, p := range pts {
		fmt.Printf("%6.0f | %.2f %.2f | %.2f %.2f\n", p.X, p.ShortP50, p.ShortP90, p.LongP50, p.LongP90)
	}
	return nil
}

func runFig1011(sc experiments.Scale) error {
	pts, err := experiments.Fig10And11(sc)
	if err != nil {
		return err
	}
	fmt.Printf("nodes | short p50 p90 | long p50 p90  (%s / split cluster)\n", sc.PolicyName())
	for _, p := range pts {
		fmt.Printf("%6.0f | %.2f %.2f | %.2f %.2f\n", p.X, p.ShortP50, p.ShortP90, p.LongP50, p.LongP90)
	}
	return nil
}

func runFig1213(sc experiments.Scale) error {
	pts, err := experiments.Fig12And13(sc)
	if err != nil {
		return err
	}
	fmt.Printf("cutoff | short p50 p90 | long p50 p90  (%s / sparrow, 15000 nodes)\n", sc.PolicyName())
	for _, p := range pts {
		fmt.Printf("%6.0f | %.2f %.2f | %.2f %.2f\n", p.X, p.ShortP50, p.ShortP90, p.LongP50, p.LongP90)
	}
	return nil
}

func runFig14(sc experiments.Scale) error {
	pts, err := experiments.Fig14(sc)
	if err != nil {
		return err
	}
	fmt.Printf("mis-estimation | long p50 p90  (%s / sparrow, avg over runs)\n", sc.PolicyName())
	for _, p := range pts {
		fmt.Printf("%.1f-%.1f | %.2f %.2f\n", p.Lo, p.Hi, p.LongP50, p.LongP90)
	}
	return nil
}

func runFig15(sc experiments.Scale) error {
	pts, err := experiments.Fig15(sc)
	if err != nil {
		return err
	}
	fmt.Println("cap | short p50 p90 | long p50 p90  (normalized to cap 1)")
	for _, p := range pts {
		fmt.Printf("%3d | %.2f %.2f | %.2f %.2f\n", p.Cap, p.ShortP50, p.ShortP90, p.LongP50, p.LongP90)
	}
	return nil
}

func runFig1617(sc experiments.Scale) error {
	cfg := experiments.QuickFig16Config()
	if *fullProto {
		cfg = experiments.DefaultFig16Config()
	}
	cfg.Seed = sc.Seed
	cfg.Workers = sc.Workers
	pts, err := experiments.Fig16And17(cfg)
	if err != nil {
		return err
	}
	fmt.Println("load | impl: short p50 p90, long p50 p90 | sim: short p50 p90, long p50 p90")
	for _, p := range pts {
		fmt.Printf("%.2f | %.2f %.2f, %.2f %.2f | %.2f %.2f, %.2f %.2f\n",
			p.LoadFactor,
			p.Impl.ShortP50, p.Impl.ShortP90, p.Impl.LongP50, p.Impl.LongP90,
			p.Sim.ShortP50, p.Sim.ShortP90, p.Sim.LongP50, p.Sim.LongP90)
	}
	return nil
}

func runAblationSteal(sc experiments.Scale) error {
	rows, err := experiments.AblationStealPosition(sc)
	if err != nil {
		return err
	}
	fmt.Println("stealing rule    | short p50 p90 | long p50 p90 | entries/steal  (hawk / sparrow, 15000 nodes)")
	for _, r := range rows {
		fmt.Printf("%-16s | %.2f %.2f | %.2f %.2f | %.2f\n",
			r.Policy, r.ShortP50, r.ShortP90, r.LongP50, r.LongP90, r.EntriesPerSteal)
	}
	return nil
}

func runAblationProbes(sc experiments.Scale) error {
	pts, err := experiments.AblationProbeRatio(sc)
	if err != nil {
		return err
	}
	fmt.Println("policy  ratio | short p50 p90 | probes sent  (normalized to the policy's ratio 2, 15000 nodes)")
	for _, p := range pts {
		fmt.Printf("%-7s %5d | %.2f %.2f | %d\n", p.Policy, p.Ratio, p.ShortP50, p.ShortP90, p.Probes)
	}
	return nil
}

func runRobustness(sc experiments.Scale) error {
	rows, err := experiments.RobustnessOutage(sc)
	if err != nil {
		return err
	}
	fmt.Println("variant              | genUtil before/outage | short p50 all/outage | long p50 all/outage | deferred outageSec steals")
	for _, r := range rows {
		fmt.Printf("%-20s | %.2f %.2f | %.0f %.0f | %.0f %.0f | %d %.0f %d\n",
			r.Variant, r.GeneralUtilBefore, r.GeneralUtilOutage,
			r.ShortP50, r.ShortP50Outage, r.LongP50, r.LongP50Outage,
			r.CentralDeferred, r.OutageSeconds, r.StealSuccesses)
	}
	fmt.Println("(lower short p50 during the outage with stealing = the paper's stealing resilience argument)")
	return nil
}

func runChurn(sc experiments.Scale) error {
	rows, err := experiments.RobustnessChurn(sc)
	if err != nil {
		return err
	}
	fmt.Println("variant              | short p50 | long p50 | fails recoveries reexec probesLost workLost(s)")
	for _, r := range rows {
		fmt.Printf("%-20s | %.0f | %.0f | %d %d %d %d %.0f\n",
			r.Variant, r.ShortP50, r.LongP50,
			r.NodeFailures, r.NodeRecoveries, r.TasksReexecuted, r.ProbesLost, r.WorkLostSeconds)
	}
	return nil
}

func runFaults(sc experiments.Scale) error {
	rows, err := experiments.RobustnessFaults(sc)
	if err != nil {
		return err
	}
	fmt.Println("policy       loss | short p50 p99 | long p50 | dropped probeRetries assignRetries")
	for _, r := range rows {
		fmt.Printf("%-11s %.2f | %.0f %.0f | %.0f | %d %d %d\n",
			r.Policy, r.Loss, r.ShortP50, r.ShortP99, r.LongP50,
			r.MessagesDropped, r.ProbeRetries, r.AssignRetries)
	}
	fmt.Println("(backoff retries absorb the drops: the price of loss is latency, never a lost task or a hang)")
	return nil
}

func runMultiSched(sc experiments.Scale) error {
	rows, err := experiments.SchedulerSweep(sc)
	if err != nil {
		return err
	}
	fmt.Println("scheds | conflict/assign retries/conflict staleness(s) | short p50 p90 | long p50 p90 | conflicts assigns refreshes")
	for _, r := range rows {
		fmt.Printf("%6d | %.3f %.2f %.2f | %.0f %.0f | %.0f %.0f | %d %d %d\n",
			r.Schedulers, r.ConflictRate, r.RetriesPerConflict, r.MeanStaleness,
			r.ShortP50, r.ShortP90, r.LongP50, r.LongP90,
			r.PlacementConflicts, r.CentralAssigns, r.SnapshotRefreshes)
	}
	fmt.Println("(latency holds flat across the sweep — the paper's graceful degradation at 10 schedulers (§4.10); conflicts peak while schedulers are mutually active, then dormancy makes placements effectively fresh)")
	return nil
}

func cdfPct(points []stats.CDFPoint, pct float64) float64 {
	target := pct / 100
	for _, p := range points {
		if p.Fraction >= target {
			return p.Value
		}
	}
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].Value
}
