// Package workload defines the job/trace model and the synthetic trace
// generators that substitute for the paper's Google, Cloudera, Facebook, and
// Yahoo workloads.
//
// A trace is exactly what the paper's simulator consumes (§4.1): tuples of
// (job id, submission time, number of tasks, duration of each task). The
// generators reproduce the published marginals: Table 1's long-job and
// task-second shares and Figure 4's task-duration / tasks-per-job CDFs.
//
// A Trace holds every job in memory, for the code that needs the whole
// workload at once (statistics, transforms, sweeps that share one trace). A
// Source yields the same jobs one at a time in submission order with the
// trace's size and defaults known up front (Meta), and is what a run
// consumes. Three sources cover the spectrum: TraceSource serves an
// in-memory Trace, GeneratorSource synthesizes jobs on demand draw-for-draw
// identical to Generate, and FileSource decodes the on-disk hawk-trace
// format (a metadata header, then one record per job, gzipped Huffman-only
// by ".gz" suffix) record by record. A workload reaches disk one way —
// SaveSource, which writes hawk-trace and nothing else — and comes back one
// way: OpenSource, which reads hawk-trace and nothing else (LoadFile
// materializes it). Sources that implement Recycler pool decoded jobs handed
// back by the consumer, closing the loop to zero steady-state allocation.
//
// A trace's bytes are a function of (spec, config, seed) and a file's jobs a
// function of its bytes; hawklint's determinism analyzer enforces it:
//
//hawk:deterministic
package workload

import (
	"fmt"
	"math"

	"repro/internal/randdist"
)

// Job is one job of a trace. Durations are the *actual* per-task runtimes;
// schedulers only ever see the estimate (average task duration, possibly
// perturbed by the mis-estimation experiments).
type Job struct {
	ID         int
	SubmitTime float64   // seconds since trace start
	Durations  []float64 // actual runtime of each task, seconds
	// ConstructedLong records whether the generator drew this job from a
	// long cluster. Schedulers never read it; it exists for Table 1/2
	// workload characterization, which the paper computes from cluster
	// membership.
	ConstructedLong bool
}

// NumTasks returns the number of tasks in the job.
func (j *Job) NumTasks() int { return len(j.Durations) }

// AvgTaskDuration returns the average task duration, the paper's per-job
// runtime estimate (§3.3).
func (j *Job) AvgTaskDuration() float64 {
	if len(j.Durations) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range j.Durations {
		sum += d
	}
	return sum / float64(len(j.Durations))
}

// TaskSeconds returns the total work of the job (sum of task durations).
func (j *Job) TaskSeconds() float64 {
	sum := 0.0
	for _, d := range j.Durations {
		sum += d
	}
	return sum
}

// Trace is a sequence of jobs in submission order plus the metadata the
// scheduler experiments need. Its jobs keep the order of a hawk-trace file:
// submit times never fall and ids strictly ascend (Validate); every
// producer here emits that order, and nothing re-sorts a trace.
type Trace struct {
	Name string
	Jobs []*Job
	// Cutoff is the default long/short cutoff (seconds of average task
	// duration) used when scheduling this trace; jobs at or above the
	// cutoff are long.
	Cutoff float64
	// ShortPartitionFraction is the default fraction of nodes reserved
	// for short tasks, derived from the long-job task-second share
	// (Table 1 / §4.1 parameters).
	ShortPartitionFraction float64
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// MakespanLowerBound returns the last job's submission time, a lower bound
// on the simulated horizon (0 for an empty trace). A valid trace is in
// submission order, so that is its latest submission.
func (t *Trace) MakespanLowerBound() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].SubmitTime
}

// Validate checks structural invariants: every job holds to CheckJob, and
// the jobs come in the order of a hawk-trace file (JobOrder: submit times
// never fall, ids strictly ascend).
func (t *Trace) Validate() error {
	var order JobOrder
	for _, j := range t.Jobs {
		if j == nil {
			return fmt.Errorf("workload: trace %q contains nil job", t.Name)
		}
		if err := CheckJob(j); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		if err := order.Check(t.Name, j); err != nil {
			return err
		}
	}
	return nil
}

// nonNegative reports whether x is a finite number >= 0, the rule for every
// time, duration and cutoff a trace holds. NaN and ±Inf fail it: NaN passes
// an x < 0 test, and the simulator never reaches an infinite submit time or
// finishes an infinite task.
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// CheckJob holds one job to the per-job invariants: a finite non-negative
// submit time, at least one task, finite non-negative durations. It is the
// rule Validate applies to every job of a trace, the trace writer to every
// job it writes, and the simulator to every job it pulls from a Source.
func CheckJob(j *Job) error {
	if !nonNegative(j.SubmitTime) {
		return fmt.Errorf("job %d: submit time %g is not a finite number >= 0", j.ID, j.SubmitTime)
	}
	if len(j.Durations) == 0 {
		return fmt.Errorf("job %d has no tasks", j.ID)
	}
	for i, d := range j.Durations {
		if !nonNegative(d) {
			return fmt.Errorf("job %d task %d: duration %g is not a finite number >= 0", j.ID, i, d)
		}
	}
	return nil
}

// Stats aggregates the workload-characterization numbers of Tables 1 and 2.
type Stats struct {
	TotalJobs          int
	LongJobs           int
	PctLongJobs        float64 // percentage, 0-100
	PctLongTaskSeconds float64 // percentage of task-seconds in long jobs
	PctLongTasks       float64 // percentage of tasks belonging to long jobs
	AvgTaskDurRatio    float64 // avg task duration long / short (per-job averages)
	TotalTasks         int
	TotalTaskSeconds   float64
}

// ComputeStats classifies jobs by cutoff (average task duration >= cutoff is
// long) and computes Table 1/2 statistics.
func ComputeStats(t *Trace, cutoff float64) Stats {
	return computeStats(t, func(_ *Job, avg float64) bool { return avg >= cutoff })
}

// computeStats is the Table 1/2 characterization under any long/short
// predicate; avg is the job's average task duration.
func computeStats(t *Trace, isLong func(j *Job, avg float64) bool) Stats {
	var s Stats
	var longTS, totalTS float64
	var longTasks int
	var longDurSum, shortDurSum float64
	var shortJobs int
	for _, j := range t.Jobs {
		ts := j.TaskSeconds()
		totalTS += ts
		s.TotalTasks += j.NumTasks()
		avg := j.AvgTaskDuration()
		if isLong(j, avg) {
			s.LongJobs++
			longTS += ts
			longTasks += j.NumTasks()
			longDurSum += avg
		} else {
			shortJobs++
			shortDurSum += avg
		}
	}
	s.TotalJobs = len(t.Jobs)
	s.TotalTaskSeconds = totalTS
	if s.TotalJobs > 0 {
		s.PctLongJobs = 100 * float64(s.LongJobs) / float64(s.TotalJobs)
	}
	if totalTS > 0 {
		s.PctLongTaskSeconds = 100 * longTS / totalTS
	}
	if s.TotalTasks > 0 {
		s.PctLongTasks = 100 * float64(longTasks) / float64(s.TotalTasks)
	}
	if s.LongJobs > 0 && shortJobs > 0 && shortDurSum > 0 {
		s.AvgTaskDurRatio = (longDurSum / float64(s.LongJobs)) / (shortDurSum / float64(shortJobs))
	}
	return s
}

// Scale returns a copy of the trace with all task durations multiplied by
// durFactor and all submit times by arrivalFactor. Used by the prototype
// experiments, which scale the Google sample from seconds to milliseconds
// (§4.1 "Real cluster run").
func (t *Trace) Scale(durFactor, arrivalFactor float64) *Trace {
	out := &Trace{
		Name:                   t.Name,
		Cutoff:                 t.Cutoff * durFactor,
		ShortPartitionFraction: t.ShortPartitionFraction,
		Jobs:                   make([]*Job, len(t.Jobs)),
	}
	for i, j := range t.Jobs {
		nj := &Job{
			ID:              j.ID,
			SubmitTime:      j.SubmitTime * arrivalFactor,
			Durations:       make([]float64, len(j.Durations)),
			ConstructedLong: j.ConstructedLong,
		}
		for k, d := range j.Durations {
			nj.Durations[k] = d * durFactor
		}
		out.Jobs[i] = nj
	}
	return out
}

// CapTasks returns a copy of the trace in which no job has more than
// maxTasks tasks; removed tasks have their durations folded into the
// remaining ones so each job keeps its original task-seconds, mirroring the
// paper's scale-down procedure for the 100-node prototype run (§4.1).
func (t *Trace) CapTasks(maxTasks int) *Trace {
	out := &Trace{
		Name:                   t.Name,
		Cutoff:                 t.Cutoff,
		ShortPartitionFraction: t.ShortPartitionFraction,
		Jobs:                   make([]*Job, len(t.Jobs)),
	}
	for i, j := range t.Jobs {
		nj := &Job{ID: j.ID, SubmitTime: j.SubmitTime, ConstructedLong: j.ConstructedLong}
		if j.NumTasks() <= maxTasks {
			nj.Durations = append([]float64(nil), j.Durations...)
		} else {
			factor := float64(j.NumTasks()) / float64(maxTasks)
			avg := j.AvgTaskDuration()
			nj.Durations = make([]float64, maxTasks)
			for k := range nj.Durations {
				nj.Durations[k] = avg * factor
			}
		}
		out.Jobs[i] = nj
	}
	return out
}

// rescaleArrivals multiplies all submission times so that the mean
// inter-arrival time equals target. Helper for generators.
func rescaleArrivals(jobs []*Job, targetMeanInterArrival float64, src *randdist.Source) {
	arr := randdist.NewArrivalProcess(src, targetMeanInterArrival)
	for _, j := range jobs {
		j.SubmitTime = arr.Next()
	}
}

// WithArrivals returns a copy of the trace whose submission times are
// redrawn from a Poisson process with the given mean inter-arrival time.
// The paper's prototype experiments vary cluster load exactly this way:
// "We vary the cluster load by varying the mean job inter-arrival rate as a
// multiple of the mean task runtime" (§4.1).
func (t *Trace) WithArrivals(meanInterArrival float64, seed int64) *Trace {
	out := t.Scale(1, 1)
	rescaleArrivals(out.Jobs, meanInterArrival, randdist.New(seed))
	return out
}

// MeanTaskDuration returns the mean task duration across every task of the
// trace, the unit in which the prototype experiments express load.
func (t *Trace) MeanTaskDuration() float64 {
	var sum float64
	var n int
	for _, j := range t.Jobs {
		sum += j.TaskSeconds()
		n += j.NumTasks()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
