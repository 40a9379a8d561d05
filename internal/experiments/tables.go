package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Table1Row reproduces one row of Table 1: long jobs form a small fraction
// of jobs but a large fraction of task-seconds.
type Table1Row struct {
	Workload           string
	PctLongJobs        float64
	PctLongTaskSeconds float64
}

// Table1 regenerates Table 1 over the four synthetic workloads, using the
// paper's classification (every non-first k-means cluster is long). Each
// workload generates and characterizes on its own worker.
func Table1(sc Scale) ([]Table1Row, error) {
	return parallelMap(workload.AllSpecs(), sc.Workers,
		func(_ int, spec workload.Spec) (Table1Row, error) {
			st := workload.ComputeStatsByConstruction(TraceFor(spec, sc))
			return Table1Row{
				Workload:           spec.Name,
				PctLongJobs:        st.PctLongJobs,
				PctLongTaskSeconds: st.PctLongTaskSeconds,
			}, nil
		})
}

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %14s\n", "Workload", "% Long Jobs", "% Task-Seconds")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %11.2f%% %13.2f%%\n", r.Workload, r.PctLongJobs, r.PctLongTaskSeconds)
	}
	return b.String()
}

// Table2Row reproduces one row of Table 2: long-job percentage and total
// job count per workload.
type Table2Row struct {
	Workload    string
	PctLongJobs float64
	TotalJobs   int
}

// Table2 regenerates Table 2, one workload per worker.
func Table2(sc Scale) ([]Table2Row, error) {
	return parallelMap(workload.AllSpecs(), sc.Workers,
		func(_ int, spec workload.Spec) (Table2Row, error) {
			st := workload.ComputeStatsByConstruction(TraceFor(spec, sc))
			return Table2Row{
				Workload:    spec.Name,
				PctLongJobs: st.PctLongJobs,
				TotalJobs:   st.TotalJobs,
			}, nil
		})
}

// FormatTable2 renders the rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %18s\n", "Workload", "% Long Jobs", "Total number jobs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %11.2f%% %18d\n", r.Workload, r.PctLongJobs, r.TotalJobs)
	}
	return b.String()
}
