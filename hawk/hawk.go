// Package hawk is the public, engine-agnostic scheduling API of this
// repository — a Go reproduction of "Hawk: Hybrid Datacenter Scheduling"
// (Delgado, Dinu, Kermarrec, Zwaenepoel — USENIX ATC 2015).
//
// The package decouples scheduling policy from execution engine. A policy
// decides where each job's work goes — probe-sample a pool of nodes,
// Sparrow-style, or hand the job to the centralized waiting-time queue —
// and which cluster mechanisms (reserved short partition, randomized work
// stealing) are active. Two engines execute policies: Simulate, the
// trace-driven discrete-event simulator the paper evaluates with, and
// RunLive, the goroutine-per-node prototype in which messages and task
// execution consume real time. Both consume the same Config and produce
// the same Report, so results compare apples-to-apples.
//
// A run is described by one Config literal. Its zero value is the paper's
// default for every knob (§4.1), resolved once by Normalize when an engine
// starts, and the resolved value is the "config" block of the Report. The
// same literal scripts a dynamic cluster — node failures and recoveries,
// central-scheduler outages, heterogeneous node speeds, concurrent
// schedulers, a lossy network (the Churn, Heterogeneity, Schedulers and
// Faults fields) — which both engines replay, re-routing lost work, with
// the Report's counters accounting for the damage. A nil scenario field is
// a static, reliable cluster and engines keep their fast paths.
//
// A run names one of the four schedulers the paper studies — "sparrow",
// "hawk", "centralized", "split" — in Config.Policy; Policies lists them,
// and Config's Disable* switches carve Hawk's mechanisms out for the
// Figure 7 ablations:
//
//	trace := hawk.Generate(hawk.Google(), hawk.GenConfig{
//		NumJobs: 4000, MeanInterArrival: 2.3, Seed: 1,
//	})
//	report, err := hawk.Simulate(trace, hawk.Config{Policy: "hawk", NumNodes: 15000, Seed: 1})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(report.Summary())
//
// The underlying implementation lives in internal/policy (API types and
// the four policies, assembled from the internal/core primitives),
// internal/sim, and internal/liverun; this package re-exports the stable
// surface. A name is re-exported if and only if cmd/, examples/ or a README
// snippet uses it, or a user cannot write a call to a re-exported function,
// a Config literal, or a Source or Config.JobSink of their own without
// spelling it: a parameter or result type, a struct a literal must name, an
// enum constant. A type that only ever arrives as a field of something
// returned (a Report's MessagesDropped) is read through its owner and has
// no alias here; neither has the file reader OpenTrace returns, a Source
// with a Close method. Every exported symbol carries a doc comment;
// hawklint's exporteddoc analyzer enforces it:
//
//hawk:exporteddoc
package hawk

import (
	"io"

	"repro/internal/liverun"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Core API types, re-exported from the internal policy layer.
type (
	// Config is the engine-agnostic run configuration shared by
	// Simulate and RunLive.
	Config = policy.Config
	// Report is the unified result schema every engine produces.
	Report = policy.Report
	// JobReport is one job's outcome within a Report.
	JobReport = policy.JobReport

	// ChurnSpec scripts dynamic cluster membership for a run: node
	// failures and recoveries plus central-scheduler outages, replayed
	// identically by both engines. Work on a failed node is lost and
	// re-routed (probes re-sent, central tasks re-assigned, running tasks
	// re-executed); the Report's NodeFailures/TasksReexecuted/
	// WorkLostSeconds counters quantify the damage.
	ChurnSpec = policy.ChurnSpec
	// ChurnEvent is one scripted cluster transition of a ChurnSpec.
	ChurnEvent = policy.ChurnEvent
	// Heterogeneity assigns per-node speed factors: a task of duration d
	// takes d/speed seconds on its executing node.
	Heterogeneity = policy.Heterogeneity
	// SpeedClass is one Heterogeneity class (fraction of nodes, speed).
	SpeedClass = policy.SpeedClass
	// SchedulerSpec turns on the distributed multi-scheduler model (§4.10):
	// N concurrent schedulers, each placing against its own stale
	// central-queue snapshot with optimistic claim/commit and bounded
	// conflict retries, jobs hash-partitioned across the live schedulers;
	// probes sample the live membership. Its two knobs are
	// Count and SnapshotInterval; a conflicted placement retries after
	// four network delays (Config.Backoff(1)) at most three times, then
	// refreshes its snapshot. Set it as Config.Schedulers (Count alone is
	// enough); the Report's
	// PlacementConflicts / ConflictRetries / SnapshotStalenessSeconds
	// counters quantify the contention.
	SchedulerSpec = policy.SchedulerSpec

	// FaultSpec turns on the gray-failure injection plane: seeded
	// per-message-class loss, bounded delay jitter, scripted mid-run
	// stragglers, and the defenses against them — timeouts with at most
	// MaxRetries retries, retry k after Config.Backoff(k) (four network
	// delays, doubling per attempt), a reliable re-send once a message
	// exhausts them, and optional speculative re-execution. Set it as
	// Config.Faults (UniformLoss builds the common "every message class at
	// p" spec); the Report's MessagesDropped / ProbeRetries /
	// AssignRetries / Speculative* counters quantify the damage and the
	// defenses' work. Both engines replay the same
	// spec; a config without one carries no fault state at all.
	FaultSpec = policy.FaultSpec
	// StragglerEvent is one scripted slowdown of a FaultSpec: at time At,
	// Count random live nodes run Factor times slower, stretching their
	// in-flight and future tasks; Factor 1 recovers.
	StragglerEvent = policy.StragglerEvent
)

// Churn event kinds.
const (
	ChurnFail         = policy.ChurnFail
	ChurnRecover      = policy.ChurnRecover
	ChurnCentralDown  = policy.ChurnCentralDown
	ChurnCentralUp    = policy.ChurnCentralUp
	ChurnSchedFail    = policy.ChurnSchedFail
	ChurnSchedRecover = policy.ChurnSchedRecover
)

// SchedulerChurn builds the churn events scripting one scheduler's failure
// and (when recoverAt > failAt) recovery, for a ChurnSpec's Events.
func SchedulerChurn(scheduler int, failAt, recoverAt float64) []ChurnEvent {
	return policy.SchedulerChurn(scheduler, failAt, recoverAt)
}

// Policies returns the sorted names of the four policies a Config may
// name.
func Policies() []string { return policy.Policies() }

// UniformLoss returns the FaultSpec that drops every message class (probe,
// reply, steal, assign, commit) with probability p and sets nothing else.
func UniformLoss(p float64) FaultSpec { return policy.UniformLoss(p) }

// Simulate runs the trace-driven discrete-event simulator (§4.1). Runs are
// deterministic for a given (trace, config) pair, and concurrent calls may
// share a *Trace: engines treat it as read-only. It is
// SimulateSource(NewTraceSource(trace), cfg), after validating the trace
// (Trace.Validate) before the first event; each job is admitted against the
// cluster as it is submitted, and the first infeasible one fails the run.
func Simulate(trace *Trace, cfg Config) (*Report, error) { return sim.Run(trace, cfg) }

// SimulateSource runs the simulator on a workload source: jobs are pulled
// one submit event at a time and finished job state is recycled, so the
// engine holds O(in-flight jobs + cluster size) however long the trace, and
// the report depends on the job stream alone, not on what kind of source
// yields it. Each job is held as it is pulled to the rules Simulate checks
// up front, the trace order included, with Simulate's messages. Combine
// with Config.DiscardJobReports (and optionally a NewJobCSVSink) to keep
// the report itself O(1) too.
func SimulateSource(src Source, cfg Config) (*Report, error) { return sim.RunSource(src, cfg) }

// RunLive runs the goroutine-per-node live prototype (§3.8, §4.10): real
// messages, injected network latency, tasks that really execute
// (time.Sleep). Trace durations are interpreted as seconds of real time;
// scale traces down first. A churn scenario that strands work ends in the
// same deadlock error Simulate returns, not a hang.
func RunLive(trace *Trace, cfg Config) (*Report, error) { return liverun.Run(trace, cfg) }

// SaveResultsCSV writes a report's per-job outcomes to path as CSV.
func SaveResultsCSV(path string, r *Report) error { return policy.SaveResultsCSV(path, r) }

// ReadResultsCSV parses a file written by SaveResultsCSV or a JobCSVSink
// back into job reports (the scalar Report fields are not part of the
// format).
func ReadResultsCSV(r io.Reader) ([]JobReport, error) { return policy.ReadResultsCSV(r) }

// SaveReportJSON writes the full report (resolved config, jobs, counters,
// utilization samples) to path as JSON.
func SaveReportJSON(path string, r *Report) error { return policy.SaveReportJSON(path, r) }

// Workload surface: traces, synthetic generators, and sources, re-exported
// so a quickstart can be written against this package alone.
type (
	// Trace is an ordered set of jobs plus workload-level defaults
	// (cutoff, short-partition fraction).
	Trace = workload.Trace
	// Job is one job: a submit time and per-task durations.
	Job = workload.Job
	// Spec describes a synthetic workload family (Google, Cloudera, ...).
	Spec = workload.Spec
	// GenConfig parameterizes synthetic trace generation.
	GenConfig = workload.GenConfig
	// WorkloadStats is the Table 1/2 characterization of a trace.
	WorkloadStats = workload.Stats

	// Source yields a workload job by job in submit-time order, with its
	// size and defaults known up front (Meta) — the one input the simulator
	// consumes; a Trace is the source that happens to be in memory.
	Source = workload.Source
	// WorkloadMeta is a Source's up-front metadata: exact job count, task
	// bounds, and the trace-level defaults.
	WorkloadMeta = workload.Meta
	// TraceSource serves an in-memory Trace as a Source.
	TraceSource = workload.TraceSource
	// GeneratorSource streams a synthetic workload draw-for-draw identical
	// to Generate, holding O(in-flight) jobs instead of the whole trace.
	GeneratorSource = workload.GeneratorSource

	// JobCSVSink streams per-job outcomes to CSV as a run executes (the
	// Config.JobSink counterpart of SaveResultsCSV); see NewJobCSVSink.
	JobCSVSink = policy.JobCSVSink
)

// Synthetic workload generators — the Google trace by name, all four of the
// paper's traces (§4.1) through AllSpecs and SpecByName, and the §2.3
// motivation scenario — plus trace statistics.
var (
	Google                     = workload.Google
	AllSpecs                   = workload.AllSpecs
	SpecByName                 = workload.SpecByName
	Generate                   = workload.Generate
	MotivationWorkload         = workload.MotivationWorkload
	ComputeStats               = workload.ComputeStats
	ComputeStatsByConstruction = workload.ComputeStatsByConstruction
)

// Workload sources and trace files: build a Source from an in-memory trace,
// a synthetic spec, or a trace file, feed it to SimulateSource, and convert
// between forms without materializing. A trace file has one way out —
// SaveTraceSource, which writes the hawk-trace format (a header carrying the
// cutoff, partition fraction and sizes, then one record per job) — and one
// way in, OpenTrace, which reads that format and nothing else.
var (
	// NewTraceSource adapts a Trace to a Source, yielding its jobs as they
	// stand: a Trace keeps the order of a trace file (submit times never
	// fall, ids strictly ascend), and a run refuses one that does not.
	NewTraceSource = workload.NewTraceSource
	// NewGeneratorSource streams the synthetic workload Generate(spec,
	// cfg) would produce, job for job, in O(in-flight) memory.
	NewGeneratorSource = workload.NewGeneratorSource
	// OpenTrace opens a hawk-trace file (gzip by ".gz" suffix) for
	// streaming: only its header is read before the first job decodes, and
	// the source holds the file until Close. A file without the header line
	// is refused; records from an outside tool read in behind the minimal
	// one, "#hawk-trace v=1 cutoff=C frac=F jobs=N".
	OpenTrace = workload.OpenSource
	// LoadTraceFile is OpenTrace, materialized and closed, for callers that
	// want the whole Trace.
	LoadTraceFile = workload.LoadFile
	// SaveTraceSource drains a Source to a hawk-trace file, recycling jobs
	// as it writes. A ".gz" path is gzipped Huffman-only: the records'
	// floats give LZ77 nothing to match, so the match search is skipped
	// (about 5x faster to write, a few percent smaller; traces of repeated
	// values grow). A failed save removes the file.
	SaveTraceSource = workload.SaveSource
	// MaterializeSource drains a Source into an in-memory Trace.
	MaterializeSource = workload.Materialize
)

// NewJobCSVSink starts a streaming per-job CSV export on w; set
// Config.JobSink to sink.Sink. CreateJobCSVSink is the file convenience.
var (
	NewJobCSVSink    = policy.NewJobCSVSink
	CreateJobCSVSink = policy.CreateJobCSVSink
)
