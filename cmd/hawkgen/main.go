// Command hawkgen generates synthetic workload traces, converts between
// the on-disk trace formats, and prints Table 1/2 characterization.
//
// Usage:
//
//	hawkgen -workload google -jobs 20000 -out google.csv
//	hawkgen -workload google -jobs 1000000 -out google.trace.gz
//	hawkgen -stats -in google.csv -cutoff 1129
//	hawkgen -in legacy.csv -cutoff 1129 -out google.trace.gz -stats=false
//
// Two formats are supported. The hawk-trace stream format (gzip by ".gz"
// suffix) carries a header with the workload's cutoff, partition fraction,
// and size, so hawksim/hawkexp can stream it without flags; the legacy
// bare-CSV format carries jobs only and needs -cutoff on load. -out picks
// the format by suffix (override with -format); converting between the two
// is just -in plus -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/hawk"
)

var (
	workloadFlag = flag.String("workload", "google", "workload: google, cloudera, facebook, yahoo, motivation")
	jobsFlag     = flag.Int("jobs", 20000, "number of jobs")
	iaFlag       = flag.Float64("ia", 0, "mean job inter-arrival time in seconds (0 = workload default)")
	seedFlag     = flag.Int64("seed", 42, "random seed")
	outFlag      = flag.String("out", "", "write the trace to this file")
	formatFlag   = flag.String("format", "auto", "-out format: stream (hawk-trace), legacy (bare CSV), auto (stream for .gz/.trace suffixes)")
	inFlag       = flag.String("in", "", "read a trace from this file (hawk-trace or legacy CSV) instead of generating")
	cutoffFlag   = flag.Float64("cutoff", 0, "cutoff for the by-cutoff statistics (0 = workload/header default)")
	statsFlag    = flag.Bool("stats", true, "print workload statistics")
)

func main() {
	flag.Parse()
	t, cutoff, err := obtainTrace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawkgen: %v\n", err)
		os.Exit(1)
	}
	if *outFlag != "" {
		if err := writeTrace(t); err != nil {
			fmt.Fprintf(os.Stderr, "hawkgen: writing %s: %v\n", *outFlag, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d jobs to %s\n", t.Len(), *outFlag)
	}
	if *statsFlag {
		printStats(t, cutoff)
	}
}

// writeTrace saves t in the format -format selects (by suffix on "auto").
func writeTrace(t *hawk.Trace) error {
	format := *formatFlag
	if format == "auto" {
		if strings.HasSuffix(*outFlag, ".gz") || strings.HasSuffix(*outFlag, ".trace") {
			format = "stream"
		} else {
			format = "legacy"
		}
	}
	switch format {
	case "stream":
		return hawk.SaveTraceSource(*outFlag, hawk.NewTraceSource(t))
	case "legacy":
		return hawk.SaveTraceFile(*outFlag, t)
	}
	return fmt.Errorf("unknown -format %q (stream, legacy, auto)", *formatFlag)
}

func obtainTrace() (*hawk.Trace, float64, error) {
	if *inFlag != "" {
		// Either format, whole: the statistics and the legacy writer both
		// need the trace in memory.
		t, err := hawk.LoadTraceFile(*inFlag)
		if err != nil {
			return nil, 0, err
		}
		cutoff := *cutoffFlag
		if cutoff <= 0 {
			cutoff = t.Cutoff // hawk-trace headers carry it; legacy CSV does not
		}
		if cutoff <= 0 {
			return nil, 0, fmt.Errorf("legacy CSV traces need -cutoff for by-cutoff stats")
		}
		if t.Cutoff <= 0 {
			// Bake the resolved cutoff into the trace, so a legacy CSV
			// converted with -out yields a stream header that carries it.
			t.Cutoff = cutoff
		}
		return t, cutoff, nil
	}
	if *workloadFlag == "motivation" {
		t := hawk.MotivationWorkload(*seedFlag)
		return t, t.Cutoff, nil
	}
	spec, err := hawk.SpecByName(*workloadFlag)
	if err != nil {
		return nil, 0, err
	}
	ia := *iaFlag
	if ia <= 0 {
		// The rate hawksim and hawkexp generate this workload at.
		ia = spec.CalibratedInterArrival()
	}
	t := hawk.Generate(spec, hawk.GenConfig{
		NumJobs:          *jobsFlag,
		MeanInterArrival: ia,
		Seed:             *seedFlag,
	})
	cutoff := *cutoffFlag
	if cutoff <= 0 {
		cutoff = spec.Cutoff
	}
	return t, cutoff, nil
}

func printStats(t *hawk.Trace, cutoff float64) {
	byCut := hawk.ComputeStats(t, cutoff)
	byGen := hawk.ComputeStatsByConstruction(t)
	fmt.Printf("trace: %s  jobs: %d  tasks: %d  task-seconds: %.3g\n",
		t.Name, byCut.TotalJobs, byCut.TotalTasks, byCut.TotalTaskSeconds)
	fmt.Printf("last submission: %.0f s\n", t.MakespanLowerBound())
	fmt.Printf("by cutoff %.0f s:      %%long=%.2f  %%task-seconds=%.2f  %%tasks=%.2f  dur-ratio=%.2f\n",
		cutoff, byCut.PctLongJobs, byCut.PctLongTaskSeconds, byCut.PctLongTasks, byCut.AvgTaskDurRatio)
	if byGen.LongJobs > 0 {
		fmt.Printf("by construction:     %%long=%.2f  %%task-seconds=%.2f  %%tasks=%.2f  dur-ratio=%.2f\n",
			byGen.PctLongJobs, byGen.PctLongTaskSeconds, byGen.PctLongTasks, byGen.AvgTaskDurRatio)
	}
}
