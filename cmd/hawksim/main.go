// Command hawksim runs a single trace-driven scheduling simulation and
// prints the collected metrics. The scheduler is one of the four the paper
// evaluates, selected by name (-policy; -list-policies prints the names).
//
// Usage:
//
//	hawksim -workload google -nodes 15000 -policy hawk -jobs 20000
//	hawksim -trace google.trace.gz -nodes 15000 -stream
//	hawksim -nodes 1000 -policy split -json run.json
//
// -trace reads a hawk-trace file (written by hawkgen -out; gzip of any level
// by ".gz" suffix), decoded job by job as the simulation runs; a synthetic
// -workload is generated job by job the same way. hawksim records nothing:
// `hawkgen -workload W -jobs N -seed S -stats=false -out F` streams the
// workload hawksim generates for the same flags into F, and `hawkgen -in X
// -out F` converts a trace file. With -stream the run keeps no per-job
// reports — class counts and percentile reservoirs only — so memory stays
// O(in-flight) regardless of trace length; -dump persists every job's
// outcome as CSV either way.
//
// The scenario flags (multi-scheduler model, churn, heterogeneity, gray
// failures) are shared with hawkexp and defined in internal/cliflags;
// `hawksim -h` documents them. For performance work, -cpuprofile and
// -memprofile write pprof profiles of the run (inspect with `go tool pprof`):
//
//	hawksim -workload google -nodes 15000 -jobs 20000 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"repro/hawk"
	"repro/internal/cliflags"
)

var (
	workloadFlag  = flag.String("workload", "google", "synthetic workload: google, cloudera, facebook, yahoo, motivation")
	traceFlag     = flag.String("trace", "", "hawk-trace file to replay (overrides -workload)")
	jobsFlag      = flag.Int("jobs", 20000, "number of jobs to generate")
	iaFlag        = flag.Float64("ia", 0, "mean job inter-arrival time in seconds (0 = workload default)")
	nodesFlag     = flag.Int("nodes", 15000, "cluster size")
	policyFlag    = flag.String("policy", "hawk", "scheduling policy: "+strings.Join(hawk.Policies(), ", "))
	cutoffFlag    = flag.Float64("cutoff", 0, "long/short cutoff seconds (0 = trace default)")
	partFlag      = flag.Float64("partition", 0, "short-partition fraction (0 = trace default)")
	probesFlag    = flag.Int("probes", 2, "probes per task")
	stealCapFlag  = flag.Int("stealcap", 10, "max nodes contacted per steal attempt")
	noStealFlag   = flag.Bool("nosteal", false, "disable work stealing")
	noPartFlag    = flag.Bool("nopartition", false, "disable the short partition")
	noCentralFlag = flag.Bool("nocentral", false, "schedule long jobs with probing instead of centrally")
	misLoFlag     = flag.Float64("mislo", 0, "mis-estimation factor lower bound")
	misHiFlag     = flag.Float64("mishi", 0, "mis-estimation factor upper bound")
	seedFlag      = flag.Int64("seed", 42, "random seed")
	listPolFlag   = flag.Bool("list-policies", false, "list the scheduling policies and exit")

	// -schedulers, -fail-nodes, -msg-loss, … (see internal/cliflags).
	scenario = cliflags.Register(flag.CommandLine)

	streamFlag = flag.Bool("stream", false, "discard per-job reports; aggregate into bounded reservoirs (for multi-million-task traces)")

	dumpFlag    = flag.String("dump", "", "write per-job results to this CSV file")
	jsonFlag    = flag.String("json", "", "write the full report to this JSON file")
	cpuProfFlag = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfFlag = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
)

func main() {
	flag.Parse()
	os.Exit(realMain())
}

// realMain holds the body so deferred profile writers run before the
// process exits (os.Exit skips defers in main).
func realMain() int {
	stopProfiles, err := cliflags.StartProfiles(*cpuProfFlag, *memProfFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 1
	}
	defer stopProfiles()
	if *listPolFlag {
		for _, name := range hawk.Policies() {
			fmt.Println(name)
		}
		return 0
	}
	src, err := openWorkload()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 1
	}
	defer closeSource(src)
	if !slices.Contains(hawk.Policies(), *policyFlag) {
		fmt.Fprintf(os.Stderr, "hawksim: unknown policy %q (one of: %s)\n", *policyFlag, strings.Join(hawk.Policies(), ", "))
		return 2
	}
	cfg, err := buildConfig(*policyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 2
	}
	// -dump rides the job sink: per-job rows land on disk at completion, in
	// the order a retained report would list them, whether or not the
	// report keeps them too.
	var sink *hawk.JobCSVSink
	if *dumpFlag != "" {
		sink, err = hawk.CreateJobCSVSink(*dumpFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
			return 1
		}
		cfg.JobSink = sink.Sink
	}
	res, err := hawk.SimulateSource(src, cfg)
	if sink != nil {
		// Close before looking at err: a run that fails must still flush
		// the rows of the jobs that did complete.
		if cerr := sink.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("writing %s: %w", *dumpFlag, cerr))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawksim: %v\n", err)
		return 1
	}
	printResult(res)
	if sink != nil {
		fmt.Printf("wrote per-job results to %s\n", *dumpFlag)
	}
	if *jsonFlag != "" {
		if err := hawk.SaveReportJSON(*jsonFlag, res); err != nil {
			fmt.Fprintf(os.Stderr, "hawksim: writing %s: %v\n", *jsonFlag, err)
			return 1
		}
		fmt.Printf("wrote report to %s\n", *jsonFlag)
	}
	return 0
}

// buildConfig assembles the run configuration from the parsed flags.
func buildConfig(policyName string) (hawk.Config, error) {
	cfg := hawk.Config{
		Policy:                 policyName,
		NumNodes:               *nodesFlag,
		Cutoff:                 *cutoffFlag,
		ShortPartitionFraction: *partFlag,
		ProbeRatio:             *probesFlag,
		StealCap:               *stealCapFlag,
		DisableStealing:        *noStealFlag,
		DisablePartition:       *noPartFlag,
		DisableCentral:         *noCentralFlag,
		MisestimateLo:          *misLoFlag,
		MisestimateHi:          *misHiFlag,
		Seed:                   *seedFlag,
		DiscardJobReports:      *streamFlag,
	}
	return cfg, scenario.Apply(&cfg)
}

// openWorkload resolves -trace/-workload to the run's source; closeSource
// releases it.
func openWorkload() (hawk.Source, error) {
	if *traceFlag != "" {
		src, err := hawk.OpenTrace(*traceFlag)
		if err != nil {
			return nil, err // a nil Source, not a nil *FileSource in one
		}
		return src, nil
	}
	return cliflags.Workload(*workloadFlag, *jobsFlag, *iaFlag, *seedFlag)
}

// closeSource closes a source that holds a file.
func closeSource(src hawk.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// printResult prints the run's headline numbers. ClassSummary reads
// whichever store the run kept (per-job reports, or the -stream reservoirs).
func printResult(res *hawk.Report) {
	short := res.ClassSummary(false)
	long := res.ClassSummary(true)
	fmt.Printf("policy: %s  jobs: %d  makespan: %.0f s  events: %d\n",
		res.Policy, short.Count+long.Count, res.Makespan, res.Events)
	fmt.Printf("short jobs: %s\n", short)
	fmt.Printf("long jobs:  %s\n", long)
	// The simulator samples utilization every 100 s, so a short run may
	// have no sample at all, or none by its last submission.
	switch med := res.Utilization.MedianUpTo(res.LastSubmit); {
	case res.Utilization.Len() == 0:
		fmt.Println("median utilization: no sample (run ended before t=100 s)")
	case math.IsNaN(med):
		fmt.Printf("median utilization (arrival window): no sample (last submit before t=100 s)  max: %.1f%%\n",
			100*res.Utilization.Max())
	default:
		fmt.Printf("median utilization (arrival window): %.1f%%  max: %.1f%%\n", 100*med, 100*res.Utilization.Max())
	}
	fmt.Printf("probes: %d  cancels: %d  tasks: %d  central assigns: %d\n",
		res.ProbesSent, res.Cancels, res.TasksExecuted, res.CentralAssigns)
	fmt.Printf("steals: attempts=%d contacts=%d successes=%d entries=%d\n",
		res.StealAttempts, res.StealContacts, res.StealSuccesses, res.EntriesStolen)
	if res.NodeFailures > 0 || res.CentralOutageSeconds > 0 {
		fmt.Printf("churn: failures=%d recoveries=%d reexecuted=%d probesLost=%d workLost=%.0fs outage=%.0fs deferred=%d\n",
			res.NodeFailures, res.NodeRecoveries, res.TasksReexecuted, res.ProbesLost,
			res.WorkLostSeconds, res.CentralOutageSeconds, res.CentralDeferred)
	}
	if d := res.MessagesDropped; d != nil {
		fmt.Printf("faults: dropped probes=%d replies=%d steals=%d assigns=%d commits=%d  retries=%d/%d\n",
			d.Probes, d.Replies, d.Steals, d.Assigns, d.Commits,
			res.ProbeRetries, res.AssignRetries)
		if res.SpeculativeLaunches > 0 || res.StragglerSlowdowns > 0 {
			fmt.Printf("speculation: launches=%d wins=%d wasted=%d  stragglers=%d\n",
				res.SpeculativeLaunches, res.SpeculativeWins, res.SpeculativeWasted, res.StragglerSlowdowns)
		}
	}
	if res.Config.Schedulers != nil {
		fmt.Printf("schedulers: n=%d conflicts=%d retries=%d refreshes=%d staleness=%.1fs\n",
			res.Config.Schedulers.Count, res.PlacementConflicts, res.ConflictRetries,
			res.SnapshotRefreshes, res.SnapshotStalenessSeconds)
		if res.SchedulerFailures > 0 {
			fmt.Printf("scheduler churn: failures=%d recoveries=%d reassigned=%d\n",
				res.SchedulerFailures, res.SchedulerRecoveries, res.SchedulerReassigned)
		}
	}
}
