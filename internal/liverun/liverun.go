// Package liverun is the live prototype counterpart to the event-driven
// simulator: a goroutine-per-node cluster runtime in which node monitors
// and a centralized scheduler exchange real messages (method calls with
// injected network latency) and tasks really execute (time.Sleep),
// mirroring the paper's Spark plug-in prototype built from Sparrow node
// monitors plus a centralized scheduler and work stealing (§3.8, §4.10).
//
// The engine executes the policy.Policy value the run configuration names —
// the one the simulator reads — and routes, parks and releases work by the
// simulator's rules: scheduling decisions are free in both engines
// (§4.1), and the multi-scheduler model hashes jobs to owners the same way.
// What differs is time: here messages, probing and stealing really take
// it — exactly the delta the paper's "implementation vs simulation"
// experiment measures (Figures 16 and 17).
package liverun

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Run executes the trace on a live goroutine cluster under the policy named
// by cfg.Policy and blocks until every job completes — or until a churn
// scenario has stranded work no later event can release, which it reports as
// the simulator's deadlock diagnosis. Durations in the trace are interpreted
// as seconds of real execution (sleep) time; callers scale traces down first
// (the paper scales the Google sample by 1000x). Jobs are submitted in trace
// order, which Trace.Validate holds to the workload order before the run.
func Run(trace *workload.Trace, cfg policy.Config) (*policy.Report, error) {
	cfg, err := cfg.Normalize(trace)
	if err != nil {
		return nil, err
	}
	// Simulator-only knobs: the prototype estimates exactly (§3.3) and
	// steals Figure 3 groups only. Rejecting loudly beats a Report whose
	// Config records settings the run silently ignored.
	if !cfg.ExactEstimates() {
		return nil, fmt.Errorf("liverun: mis-estimation [%g, %g] is simulator-only; the live engine estimates exactly",
			cfg.MisestimateLo, cfg.MisestimateHi)
	}
	if cfg.StealRandomPositions {
		return nil, fmt.Errorf("liverun: StealRandomPositions is a simulator-only ablation")
	}
	if cfg.DiscardJobReports || cfg.JobSink != nil {
		return nil, fmt.Errorf("liverun: streamed report aggregation (DiscardJobReports/JobSink) is simulator-only")
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	pol, err := policy.New(cfg.Policy, cfg)
	if err != nil {
		return nil, err
	}

	// The feasibility pre-flight is the live engine's one admission check:
	// a run cannot be stopped at a job once its goroutines are up, and the
	// live view is mutated concurrently from then on.
	if err := policy.CheckTraceFeasibility(trace, cfg, pol); err != nil {
		return nil, err
	}
	cls := core.Classifier{Cutoff: cfg.Cutoff}

	c := newCluster(cfg, pol, len(trace.Jobs))
	defer c.stopAll()

	start := time.Now()
	results := make([]policy.JobReport, len(trace.Jobs))

	for i, j := range trace.Jobs {
		// Pace submissions by the trace's submit times in real time.
		target := start.Add(time.Duration(j.SubmitTime * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		idx, job := i, j
		long := cls.IsLong(job.AvgTaskDuration())
		duringOutage := c.isCentralDown()
		jr := newJobRuntime(job, long, time.Now())
		if f := cfg.Faults; f != nil && f.Speculate {
			jr.completed = make([]bool, job.NumTasks())
			thresh, _ := f.SpeculationThreshold(job.Durations, nil)
			jr.specThresh = time.Duration(thresh * float64(time.Second))
		}
		jr.onDone = func(runtime time.Duration) {
			results[idx] = policy.JobReport{
				ID:           job.ID,
				SubmitTime:   job.SubmitTime,
				Runtime:      runtime.Seconds(),
				Tasks:        job.NumTasks(),
				Long:         long,
				TrueLong:     long, // the live engine estimates exactly (§3.3)
				Estimate:     job.AvgTaskDuration(),
				DuringOutage: duringOutage,
			}
			c.jobDone(jr)
		}
		c.route(jr)
	}
	<-c.over // every job done, or the deadlock diagnosed
	if c.err != nil {
		return nil, c.err
	}
	return c.report(results, time.Since(start), trace.MakespanLowerBound()), nil
}
