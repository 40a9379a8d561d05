// Command hawkgen generates synthetic workload traces, gives a trace from
// an outside tool its header, and prints Table 1/2 characterization.
//
// Usage:
//
//	hawkgen -workload google -jobs 20000 -out google.trace
//	hawkgen -workload google -jobs 1000000 -out google.trace.gz
//	hawkgen -stats -in google.trace
//	hawkgen -in legacy.csv -cutoff 1129 -out google.trace.gz -stats=false
//
// -out writes the hawk-trace format whatever the file is called: a header
// line with the workload's cutoff, partition fraction and size, then one
// record per job, so hawksim and hawkexp stream it without flags. A ".gz"
// name gzips it Huffman-only — the records' floats give LZ77 nothing to
// match, so skipping the search writes about 5x faster and a few percent
// smaller (a trace of repeated values, like motivation's, grows); any gzip
// tool reads it. -in reads gzip of any level, and also a headerless CSV of
// the same records, which carries no cutoff and needs -cutoff; with -out
// that is the conversion.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/hawk"
)

var (
	workloadFlag = flag.String("workload", "google", "workload: google, cloudera, facebook, yahoo, motivation")
	jobsFlag     = flag.Int("jobs", 20000, "number of jobs")
	iaFlag       = flag.Float64("ia", 0, "mean job inter-arrival time in seconds (0 = workload default)")
	seedFlag     = flag.Int64("seed", 42, "random seed")
	outFlag      = flag.String("out", "", "write the trace to this hawk-trace file (Huffman-only gzip by .gz suffix)")
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
		if err := hawk.SaveTraceSource(*outFlag, hawk.NewTraceSource(t)); err != nil {
			fmt.Fprintf(os.Stderr, "hawkgen: writing %s: %v\n", *outFlag, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d jobs to %s\n", t.Len(), *outFlag)
	}
	if *statsFlag {
		printStats(t, cutoff)
	}
}

func obtainTrace() (*hawk.Trace, float64, error) {
	if *inFlag != "" {
		// Either format, whole: the statistics need the trace in memory.
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
