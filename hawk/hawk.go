// Package hawk is the public, engine-agnostic scheduling API of this
// repository — a Go reproduction of "Hawk: Hybrid Datacenter Scheduling"
// (Delgado, Dinu, Kermarrec, Zwaenepoel — USENIX ATC 2015).
//
// The package decouples scheduling policy from execution engine. A Policy
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
// The four schedulers the paper studies — "sparrow", "hawk", "centralized",
// "split" — are registered policies; list them with Policies, validate a
// CLI flag with Registered, and plug in new policies with Register
// without touching engine code:
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
// built-in policies, assembled from the internal/core primitives),
// internal/sim, and internal/liverun; this package re-exports the stable
// surface. A name is re-exported if and only if cmd/, examples/ or a README
// snippet uses it, or a user cannot write a call to a re-exported function,
// a Config literal, or a Policy, Source or Config.JobSink of their own
// without spelling it: a parameter or result type, a struct a literal must
// name, an enum constant. A type that only ever arrives as a field of
// something returned (a Report's MessagesDropped, a Decision's Action) is
// read through its owner and has no alias here; neither has the file reader
// behind OpenTrace, which arrives as a Source and is released through
// io.Closer. Every exported symbol
// carries a doc comment; hawklint's exporteddoc analyzer enforces it:
//
//hawk:exporteddoc
package hawk

import (
	"context"
	"io"

	"repro/internal/liverun"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Core API types, re-exported from the internal policy layer.
type (
	// Policy is a scheduling policy: it routes classified jobs and
	// declares the cluster mechanisms a run needs.
	Policy = policy.Policy
	// Factory builds a Policy from a run Config; pass one to Register.
	Factory = policy.Factory
	// Config is the engine-agnostic run configuration shared by
	// Simulate and RunLive.
	Config = policy.Config
	// Report is the unified result schema every engine produces.
	Report = policy.Report
	// JobReport is one job's outcome within a Report.
	JobReport = policy.JobReport
	// Decision is a Policy's placement verdict for one job.
	Decision = policy.Decision
	// JobInfo is the engine-independent view of a job being routed.
	JobInfo = policy.JobInfo
	// Pool identifies a candidate node set relative to the partition.
	Pool = policy.Pool

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
	// N concurrent schedulers, each placing against its own stale cluster
	// snapshot with optimistic claim/commit and bounded conflict retries,
	// jobs hash-partitioned across the live schedulers. Set it as
	// Config.Schedulers (Count alone is enough); the Report's
	// PlacementConflicts / ConflictRetries / SnapshotStalenessSeconds
	// counters quantify the contention.
	SchedulerSpec = policy.SchedulerSpec

	// FaultSpec turns on the gray-failure injection plane: seeded
	// per-message-class loss, bounded delay jitter, scripted mid-run
	// stragglers, and the defenses against them — probe timeouts with
	// bounded exponential-backoff retries, graceful degradation to the
	// central queue, and optional speculative re-execution. Set it as
	// Config.Faults (UniformLoss builds the common "every message class at
	// p" spec); the Report's MessagesDropped / ProbeRetries /
	// FallbacksToCentral / Speculative* counters quantify the damage and
	// the defenses' work. Both engines replay the same
	// spec; a config without one carries no fault state at all.
	FaultSpec = policy.FaultSpec
	// StragglerEvent is one scripted slowdown of a FaultSpec: at time At,
	// Count random nodes (or the specific Node) run Factor times slower,
	// stretching their in-flight and future tasks; Factor 1 recovers.
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

// Decision actions and candidate pools.
const (
	ActionProbe   = policy.ActionProbe
	ActionCentral = policy.ActionCentral

	PoolNone    = policy.PoolNone
	PoolAll     = policy.PoolAll
	PoolGeneral = policy.PoolGeneral
	PoolShort   = policy.PoolShort
)

// Register makes a policy available under the given name, alongside the
// built-in "sparrow", "hawk", "centralized", and "split". Registered
// policies run unmodified on every engine. It panics on empty or duplicate
// names.
func Register(name string, f Factory) { policy.Register(name, f) }

// Policies returns the sorted names of all registered policies.
func Policies() []string { return policy.Policies() }

// Registered reports whether a policy name is in the registry without
// instantiating it — the right check for validating a flag value.
func Registered(name string) bool { return policy.Registered(name) }

// UniformLoss returns the FaultSpec that drops every message class (probe,
// reply, steal, assign, commit) with probability p and sets nothing else.
func UniformLoss(p float64) FaultSpec { return policy.UniformLoss(p) }

// Engine runs a trace under a configuration and produces a Report. Both
// Simulate and RunLive satisfy it, so experiment drivers can be written
// once and pointed at either engine — and a Sweep fans any Engine out over
// a worker pool.
type Engine = sweep.Engine

// Simulate runs the trace-driven discrete-event simulator (§4.1). Runs are
// deterministic for a given (trace, config) pair. It is
// SimulateSource(NewTraceSource(trace), cfg), after checking every job of
// the trace against the cluster before the first event.
func Simulate(trace *Trace, cfg Config) (*Report, error) { return sim.Run(trace, cfg) }

// SimulateSource runs the simulator on a workload source: jobs are pulled
// one submit event at a time and finished job state is recycled, so the
// engine holds O(in-flight jobs + cluster size) however long the trace, and
// the report depends on the job stream alone, not on what kind of source
// yields it. Combine with Config.DiscardJobReports (and optionally a
// NewJobCSVSink) to keep the report itself O(1) too.
func SimulateSource(src Source, cfg Config) (*Report, error) { return sim.RunSource(src, cfg) }

// RunLive runs the goroutine-per-node live prototype (§3.8, §4.10): real
// messages, injected network latency, tasks that really execute
// (time.Sleep). Trace durations are interpreted as seconds of real time;
// scale traces down first. A churn scenario that strands work ends in the
// same deadlock error Simulate returns, not a hang.
func RunLive(trace *Trace, cfg Config) (*Report, error) { return liverun.Run(trace, cfg) }

// Parallel sweeps: every figure of the paper's evaluation is a set of
// independent (trace, config) runs, and Sweep executes such a set over a
// bounded worker pool with results byte-identical to a serial loop.
type (
	// Sweep is a set of independent runs plus execution options: an
	// Engine (nil means Simulate) and Jobs, the worker-pool bound (zero
	// means one worker per CPU).
	Sweep = sweep.Sweep
	// SweepPoint is one run of a Sweep; points may share a *Trace.
	SweepPoint = sweep.Point
)

// RunSweep executes every point of the sweep over the worker pool and
// returns one report per point, in point order. Ordering, bounded
// concurrency, deterministic first-error propagation, and context
// cancellation are guaranteed; see internal/sweep for the contract.
//
//	reports, err := hawk.RunSweep(ctx, hawk.Sweep{Points: pts, Jobs: 8})
func RunSweep(ctx context.Context, s Sweep) ([]*Report, error) { return s.Run(ctx) }

// DeriveSeed deterministically derives the seed for point i of a
// multi-seed sweep from a base seed, mixing (base, i) so adjacent indices
// yield decorrelated random streams.
func DeriveSeed(base int64, i int) int64 { return sweep.DeriveSeed(base, i) }

// SeededPoints builds n sweep points running the same trace and
// configuration under n derived seeds — the shape of every "averaged over
// N runs" figure.
func SeededPoints(t *Trace, cfg Config, base int64, n int) []SweepPoint {
	return sweep.SeededPoints(t, cfg, base, n)
}

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
// way in, OpenTrace, which also reads a headerless CSV of the same records.
var (
	// NewTraceSource adapts a Trace to a Source (sorting an index view,
	// not the trace, when submit times are out of order).
	NewTraceSource = workload.NewTraceSource
	// NewGeneratorSource streams the synthetic workload Generate(spec,
	// cfg) would produce, job for job, in O(in-flight) memory.
	NewGeneratorSource = workload.NewGeneratorSource
	// OpenTrace opens a trace file (gzip by ".gz" suffix). A hawk-trace
	// file streams: only its header is read before the first job decodes,
	// and the Source holds the file — release it through io.Closer. A
	// headerless legacy CSV is read whole and carries no name, cutoff or
	// partition fraction.
	OpenTrace = workload.Open
	// LoadTraceFile is OpenTrace, materialized and closed, for callers that
	// want the whole Trace.
	LoadTraceFile = workload.LoadFile
	// SaveTraceSource drains a Source to a hawk-trace file (gzip by ".gz"
	// suffix), recycling jobs as it writes.
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
