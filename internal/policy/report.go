package policy

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// JobReport records the outcome for one job, in any engine.
type JobReport struct {
	ID         int     `json:"id"`
	SubmitTime float64 `json:"submitTime"`
	// Runtime is the completion of the job's last task minus its
	// submission, in seconds (a job completes only after all its tasks,
	// §3.1). Simulated seconds in the simulator, wall-clock seconds in
	// the live engine.
	Runtime float64 `json:"runtime"`
	Tasks   int     `json:"tasks"`
	// Long is the scheduler's classification (with mis-estimation, if
	// configured); TrueLong is the classification under exact estimates,
	// used by Figure 14's reporting.
	Long     bool    `json:"long"`
	TrueLong bool    `json:"trueLong"`
	Estimate float64 `json:"estimate"`
	// DuringOutage marks jobs submitted while the centralized scheduler
	// was scripted down (ChurnCentralDown); the robustness experiments
	// split latency on it. Always false on a run without outage events.
	DuringOutage bool `json:"duringOutage,omitempty"`
}

// Report aggregates one run's outputs in the schema shared by every
// engine, so experiments, benchmarks, and CLIs compare engines
// apples-to-apples. Engine-specific fields are zero where an engine does
// not produce them.
//
// What a run leaves behind is sized by what a reader can use: O(jobs) when
// it retains per-job reports (Jobs), O(1) when it discards them
// (Config.DiscardJobReports: Streamed), and in neither mode O(queue
// entries).
type Report struct {
	// Engine names the engine that produced the report: "sim" for the
	// discrete-event simulator, "live" for the goroutine prototype.
	Engine string `json:"engine"`
	// Policy is the name of the scheduling policy that ran.
	Policy string `json:"policy"`
	// Config is the fully resolved configuration of the run.
	Config Config `json:"config"`

	Jobs []JobReport `json:"jobs"`
	// Makespan is the completion time of the last job, in seconds from the
	// run's start: simulated on the simulator, wall-clock on the live
	// engine. Events scheduled past it — a scripted recovery, a retry timer —
	// do not extend it.
	Makespan float64 `json:"makespan"`
	// LastSubmit is the submit time of the last job the engine took: the end
	// of the arrival window, the deadline to give Utilization.MedianUpTo.
	LastSubmit float64 `json:"-"`
	// Utilization is the periodically sampled fraction of busy slots
	// (simulator only).
	Utilization stats.UtilizationSeries `json:"-"`
	// GeneralUtilization is the periodically sampled fraction of busy
	// slots among the *live general partition* (simulator only) — the
	// series the central-outage robustness figure plots to show stealing
	// keeping the general partition utilized while the centralized queue
	// is down.
	GeneralUtilization stats.UtilizationSeries `json:"-"`

	// Mechanism counters.
	//
	// ProbesSent counts batch-sampling probes sent: one per sampled node at
	// routing, plus one per probe re-sent to a live node after its node
	// failed (ProbesLost). A probe dropped by the fault plane is re-sent to
	// the same node and counted in ProbeRetries, not here.
	ProbesSent     int64  `json:"probesSent"`
	Cancels        int64  `json:"cancels"`
	TasksExecuted  int64  `json:"tasksExecuted"`
	StealAttempts  int64  `json:"stealAttempts"`  // idle transitions that tried to steal
	StealContacts  int64  `json:"stealContacts"`  // victim nodes contacted
	StealSuccesses int64  `json:"stealSuccesses"` // attempts that stole a group
	EntriesStolen  int64  `json:"entriesStolen"`  // queue entries moved by stealing
	CentralAssigns int64  `json:"centralAssigns"`
	Events         uint64 `json:"events,omitempty"` // simulator events executed — events, not queue entries: messages that shared an entry count one each

	// Dynamic-cluster counters, all zero (and omitted from JSON) on a run
	// without churn/heterogeneity so static reports are unchanged.
	NodeFailures   int64 `json:"nodeFailures,omitempty"`   // scripted node failures applied
	NodeRecoveries int64 `json:"nodeRecoveries,omitempty"` // scripted node recoveries applied
	// TasksReexecuted counts tasks that had started executing on a node
	// that failed and were re-run from scratch elsewhere.
	TasksReexecuted int64 `json:"tasksReexecuted,omitempty"`
	// ProbesLost counts batch-sampling probes lost to node failures
	// (queued on, in flight to, or awaiting reply at a failed node); each
	// is re-sent to a live node, so it also counts probe re-sends.
	ProbesLost int64 `json:"probesLost,omitempty"`
	// WorkLostSeconds is the execution time thrown away by failures: for
	// every task interrupted mid-run, the seconds it had been executing.
	WorkLostSeconds float64 `json:"workLostSeconds,omitempty"`
	// CentralDeferred counts placements (whole jobs at submission, single
	// tasks on re-route) parked in the backlog while the centralized
	// scheduler was down or had no live servers.
	CentralDeferred int64 `json:"centralDeferred,omitempty"`
	// CentralOutageSeconds is the total scripted central-scheduler
	// downtime that elapsed during the run.
	CentralOutageSeconds float64 `json:"centralOutageSeconds,omitempty"`

	// Multi-scheduler counters, all zero (and omitted from JSON) unless
	// Config.Schedulers turns on the concurrent-scheduler model.
	//
	// PlacementConflicts counts optimistic placements that failed their
	// claim: another scheduler had claimed the node after this scheduler's
	// snapshot (or the node had died unseen).
	PlacementConflicts int64 `json:"placementConflicts,omitempty"`
	// ConflictRetries counts conflicted placements re-tried after the
	// backoff; a conflict that had exhausted its retries instead forces a
	// snapshot refresh (so forced refreshes = conflicts - retries).
	ConflictRetries int64 `json:"conflictRetries,omitempty"`
	// SnapshotRefreshes counts cluster-snapshot refreshes across all
	// schedulers: periodic, post-dormancy catch-ups, and conflict-forced.
	SnapshotRefreshes int64 `json:"snapshotRefreshes,omitempty"`
	// SnapshotStalenessSeconds sums, over every committed central
	// placement, the age of the placing scheduler's snapshot at commit
	// time; divided by CentralAssigns it is the mean staleness a placement
	// decision was made against.
	SnapshotStalenessSeconds float64 `json:"snapshotStalenessSeconds,omitempty"`
	// SchedulerFailures / SchedulerRecoveries count scripted scheduler
	// churn events applied.
	SchedulerFailures   int64 `json:"schedulerFailures,omitempty"`
	SchedulerRecoveries int64 `json:"schedulerRecoveries,omitempty"`
	// SchedulerReassigned counts job-to-scheduler re-assignments after a
	// scheduler failure (each re-hash of an affected job counts once).
	SchedulerReassigned int64 `json:"schedulerReassigned,omitempty"`

	// Gray-failure counters, all zero (and omitted from JSON) unless
	// Config.Faults turns on the fault-injection plane.
	//
	// MessagesDropped counts injected message drops by class; nil on a
	// fault-free run so serialized reports are unchanged.
	MessagesDropped *MessageDrops `json:"messagesDropped,omitempty"`
	// ProbeRetries counts probe/task-request re-sends after a timeout
	// (at most Faults.MaxRetries+1 per message, the last one reliable).
	ProbeRetries int64 `json:"probeRetries,omitempty"`
	// AssignRetries counts central-assignment (and multi-scheduler commit)
	// re-sends after a dropped placement message.
	AssignRetries int64 `json:"assignRetries,omitempty"`
	// SpeculativeLaunches counts duplicate task launches; of those,
	// SpeculativeWins finished before the original (which was cancelled)
	// and SpeculativeWasted lost to it (duplicate work thrown away).
	SpeculativeLaunches int64 `json:"speculativeLaunches,omitempty"`
	SpeculativeWins     int64 `json:"speculativeWins,omitempty"`
	SpeculativeWasted   int64 `json:"speculativeWasted,omitempty"`
	// StragglerSlowdowns counts scripted straggler slowdown applications
	// (one per affected node per event).
	StragglerSlowdowns int64 `json:"stragglerSlowdowns,omitempty"`

	// Streamed holds the bounded-memory aggregates of a run with
	// Config.DiscardJobReports set: per-class job counts and runtime
	// reservoirs standing in for the Jobs slice (which is then empty). Nil
	// on a run retaining per-job reports.
	Streamed *StreamedStats `json:"streamed,omitempty"`
}

// DefaultReservoirSize is the per-class capacity of the simulator's
// StreamedStats runtime reservoirs: percentiles stay exact up to this many
// samples per class and become tight estimates beyond, while report memory
// stays constant.
const DefaultReservoirSize = 4096

// StreamedStats aggregates per-job outcomes with O(1) memory: class
// counts and fixed-capacity uniform reservoirs of the runtimes. It stands
// in for Report.Jobs on runs that discard per-job reports;
// Report.Percentile and Report.Summary consult it transparently.
type StreamedStats struct {
	ShortJobs int64 `json:"shortJobs"`
	LongJobs  int64 `json:"longJobs"`
	// TrueShortJobs/TrueLongJobs count by the exact-estimate class (the
	// scheduler's view can differ under mis-estimation).
	TrueShortJobs int64 `json:"trueShortJobs"`
	TrueLongJobs  int64 `json:"trueLongJobs"`
	// OutageJobs counts jobs submitted during a scripted central outage.
	OutageJobs int64 `json:"outageJobs,omitempty"`

	shortRuntimes *stats.Reservoir
	longRuntimes  *stats.Reservoir
}

// NewStreamedStats builds the aggregate with the given per-class reservoir
// capacity. The reservoirs draw from consecutive sub-seeds (seed for short,
// seed+1 for long) so the aggregate is a pure function of (capacity, seed,
// observation sequence).
func NewStreamedStats(capacity int, seed int64) *StreamedStats {
	return &StreamedStats{
		shortRuntimes: stats.NewReservoir(capacity, seed),
		longRuntimes:  stats.NewReservoir(capacity, seed+1),
	}
}

// ObserveJob folds one completed job into the aggregate.
//
//hawk:hotpath
func (st *StreamedStats) ObserveJob(j JobReport) {
	if j.Long {
		st.LongJobs++
		st.longRuntimes.Add(j.Runtime)
	} else {
		st.ShortJobs++
		st.shortRuntimes.Add(j.Runtime)
	}
	if j.TrueLong {
		st.TrueLongJobs++
	} else {
		st.TrueShortJobs++
	}
	if j.DuringOutage {
		st.OutageJobs++
	}
}

// runtimeReservoir returns the runtime reservoir for the class.
func (st *StreamedStats) runtimeReservoir(long bool) *stats.Reservoir {
	if long {
		return st.longRuntimes
	}
	return st.shortRuntimes
}

// runtimes returns per-class runtimes selected by sel. It counts the
// matches first and allocates exactly: the callers immediately hand the
// slice to sorting statistics, so over-reserving len(r.Jobs) for what is
// typically a small class was pure waste.
func (r *Report) runtimes(sel func(JobReport) bool) []float64 {
	n := 0
	for _, j := range r.Jobs {
		if sel(j) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for _, j := range r.Jobs {
		if sel(j) {
			out = append(out, j.Runtime)
		}
	}
	return out
}

// ShortRuntimes returns runtimes of jobs the scheduler classified short.
func (r *Report) ShortRuntimes() []float64 {
	return r.runtimes(func(j JobReport) bool { return !j.Long })
}

// LongRuntimes returns runtimes of jobs the scheduler classified long.
func (r *Report) LongRuntimes() []float64 {
	return r.runtimes(func(j JobReport) bool { return j.Long })
}

// OutageShortRuntimes returns runtimes of short-classified jobs submitted
// while the centralized scheduler was scripted down.
func (r *Report) OutageShortRuntimes() []float64 {
	return r.runtimes(func(j JobReport) bool { return j.DuringOutage && !j.Long })
}

// OutageLongRuntimes returns runtimes of long-classified jobs submitted
// while the centralized scheduler was scripted down.
func (r *Report) OutageLongRuntimes() []float64 {
	return r.runtimes(func(j JobReport) bool { return j.DuringOutage && j.Long })
}

// RuntimesByID returns a job-id → runtime map for the class selected by
// long (using the true classification so paired comparisons across
// schedulers and mis-estimation settings align).
func (r *Report) RuntimesByID(long bool) map[int]float64 {
	out := make(map[int]float64)
	for _, j := range r.Jobs {
		if j.TrueLong == long {
			out[j.ID] = j.Runtime
		}
	}
	return out
}

// Percentile returns the p-th percentile runtime for the class — computed
// from the per-job reports, or from the streamed reservoir sample when the
// run discarded them (exact up to the reservoir capacity, an estimate
// beyond).
func (r *Report) Percentile(long bool, p float64) float64 {
	if len(r.Jobs) == 0 && r.Streamed != nil {
		return r.Streamed.runtimeReservoir(long).Percentile(p)
	}
	if long {
		return stats.Percentile(r.LongRuntimes(), p)
	}
	return stats.Percentile(r.ShortRuntimes(), p)
}

// ClassSummary summarizes the class's runtimes from whichever store the
// run kept: the per-job reports, or the streamed reservoirs (with the
// exact class count substituted for the bounded sample's length).
func (r *Report) ClassSummary(long bool) stats.Summary {
	if len(r.Jobs) == 0 && r.Streamed != nil {
		s := r.Streamed.runtimeReservoir(long).Summarize()
		// The reservoir retains a bounded sample; the count of observed
		// jobs is tracked exactly.
		if long {
			s.Count = int(r.Streamed.LongJobs)
		} else {
			s.Count = int(r.Streamed.ShortJobs)
		}
		return s
	}
	if long {
		return stats.Summarize(r.LongRuntimes())
	}
	return stats.Summarize(r.ShortRuntimes())
}

// Summary formats the headline numbers of the run.
func (r *Report) Summary() string {
	short := r.ClassSummary(false)
	long := r.ClassSummary(true)
	util := r.Utilization.Median()
	if math.IsNaN(util) {
		util = 0
	}
	return fmt.Sprintf("%s: short[%s] long[%s] medianUtil=%.1f%% makespan=%.0fs",
		r.Policy, short, long, 100*util, r.Makespan)
}

// jsonReport is the serialized form of Report: the Report fields plus the
// utilization samples, which live behind accessors in stats.
type jsonReport struct {
	Report
	UtilizationSamples []float64 `json:"utilizationSamples,omitempty"`
	MedianUtilization  float64   `json:"medianUtilization,omitempty"`
}

// WriteJSON writes the report as indented JSON, including the utilization
// samples, so runs from either engine can be archived and diffed with
// standard tooling. The bytes are those of a json.Encoder with
// SetIndent("", "  ") over the whole report, but memory is O(one job): the
// report is marshalled once with Jobs emptied, and the jobs are spliced
// into that shell one element at a time through a reused buffer, each
// written by appendJobJSON.
func (r *Report) WriteJSON(w io.Writer) error {
	jr := jsonReport{Report: *r, UtilizationSamples: r.Utilization.Samples()}
	jr.Jobs = nil
	if med := r.Utilization.Median(); !math.IsNaN(med) {
		jr.MedianUtilization = med
	}
	shell, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return err
	}
	// A raw newline cannot occur inside a JSON string, so with its indent
	// this matches the top-level key and nothing else.
	const jobsKey = "\n  \"jobs\": "
	head, tail, _ := bytes.Cut(shell, []byte(jobsKey+"null"))
	bw := bufio.NewWriter(w) // keeps its first write error for Flush to report
	bw.Write(head)
	bw.WriteString(jobsKey)
	before, after := "[\n    ", "[]"
	if r.Jobs == nil {
		after = "null"
	}
	job := make([]byte, 0, 256)
	for i := range r.Jobs {
		if job, err = appendJobJSON(append(job[:0], before...), &r.Jobs[i]); err != nil {
			return err
		}
		bw.Write(job)
		before, after = ",\n    ", "\n  ]"
	}
	bw.WriteString(after)
	bw.Write(tail)
	bw.WriteByte('\n')
	return bw.Flush()
}

// SaveReportJSON writes the full report to path as JSON, the file-level
// counterpart of SaveResultsCSV.
func SaveReportJSON(path string, r *Report) error { return writeFile(path, r.WriteJSON) }
