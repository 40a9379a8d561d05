package workload

import (
	"fmt"
	"math"

	"repro/internal/randdist"
)

// ClusterSpec describes one k-means cluster of a workload, following the
// paper's §4.1 recipe: the number of tasks per job and the per-job mean task
// duration are drawn around centroid values, and per-task durations are
// Gaussian around the job mean.
type ClusterSpec struct {
	Name     string
	Fraction float64 // fraction of jobs drawn from this cluster
	// MeanTasks is the centroid for the number of tasks per job; the draw
	// is exponential with this mean, clamped to at least one task.
	MeanTasks float64
	// MeanDur is the centroid for the per-job mean task duration
	// (seconds). When DurSigma == 0 the draw is exponential with this
	// mean (the paper's recipe for the Cloudera/Facebook/Yahoo traces);
	// otherwise it is log-normal with median MeanDur and the given sigma,
	// which gives the synthetic Google trace its heavier tail with less
	// leakage across the long/short cutoff.
	MeanDur  float64
	DurSigma float64
	// TaskDurCV is the coefficient of variation of per-task durations
	// around the job mean (Gaussian, truncated at zero). The paper's
	// derived traces use sigma = 2*mean, i.e. CV = 2.
	TaskDurCV float64
	// Long marks this cluster as long-by-construction (every cluster
	// other than the first is long in [4, 5]); used for Table 1/2 stats.
	Long bool
}

// Spec describes a full synthetic workload: its clusters plus the default
// scheduling parameters the paper uses for the trace.
type Spec struct {
	Name                   string
	Clusters               []ClusterSpec
	Cutoff                 float64 // default long/short cutoff, seconds
	ShortPartitionFraction float64 // default reserved fraction (§4.1)
}

// Google returns the synthetic Google-2011-like workload. The paper's
// actual trace is not redistributable, so the clusters below are calibrated
// so that (with the default 1129 s cutoff) roughly 10% of jobs are long,
// long jobs hold roughly 80-84% of task-seconds and roughly 28% of tasks,
// and the per-class CDFs fall in the ranges of Figure 4.
//
// Within-job task-duration variation (TaskDurCV = 0.15) models the paper's
// observation that jobs are largely recurring computations with similar
// tasks (§3.3 cites [9]): tasks of one job cluster tightly around the job
// mean, which is what makes the average-task-runtime estimate useful to the
// centralized scheduler. The mis-estimation experiment (§4.8) perturbs the
// estimates independently of this knob.
func Google() Spec {
	return Spec{
		Name:                   "google",
		Cutoff:                 1129,
		ShortPartitionFraction: 0.17,
		Clusters: []ClusterSpec{
			{Name: "short-small", Fraction: 0.60, MeanTasks: 10, MeanDur: 100, DurSigma: 0.7, TaskDurCV: 0.15},
			{Name: "short-medium", Fraction: 0.30, MeanTasks: 45, MeanDur: 350, DurSigma: 0.6, TaskDurCV: 0.15},
			{Name: "long-batch", Fraction: 0.08, MeanTasks: 65, MeanDur: 2200, DurSigma: 0.5, TaskDurCV: 0.15, Long: true},
			{Name: "long-huge", Fraction: 0.02, MeanTasks: 150, MeanDur: 4000, DurSigma: 0.5, TaskDurCV: 0.15, Long: true},
		},
	}
}

// ClouderaC returns the Cloudera-C 2011 workload built with the paper's own
// recipe (§4.1): exponential draws around cluster centroids, Gaussian task
// durations with sigma = 2*mean. Centroids are derived so Table 1 holds:
// ~5% long jobs holding ~93% of task-seconds.
//
// Note on cutoffs for the derived traces: redrawing negative Gaussian
// samples at sigma = 2*mean (the paper's recipe) inflates the realized
// mean task duration to ~2.02x the drawn centroid, so the default cutoffs
// sit near the geometric mean of the *realized* short and long duration
// means.
func ClouderaC() Spec {
	return Spec{
		Name:                   "cloudera",
		Cutoff:                 320,
		ShortPartitionFraction: 0.09,
		Clusters: []ClusterSpec{
			{Name: "short", Fraction: 0.9498, MeanTasks: 20, MeanDur: 50, TaskDurCV: 2},
			{Name: "long-medium", Fraction: 0.0350, MeanTasks: 150, MeanDur: 500, TaskDurCV: 2, Long: true},
			{Name: "long-large", Fraction: 0.0152, MeanTasks: 400, MeanDur: 1500, TaskDurCV: 2, Long: true},
		},
	}
}

// Facebook returns the Facebook 2010 workload (paper recipe): ~2% long jobs
// holding ~99.8% of task-seconds.
func Facebook() Spec {
	return Spec{
		Name:                   "facebook",
		Cutoff:                 280,
		ShortPartitionFraction: 0.02,
		Clusters: []ClusterSpec{
			{Name: "short", Fraction: 0.9799, MeanTasks: 5, MeanDur: 20, TaskDurCV: 2},
			{Name: "long-medium", Fraction: 0.0150, MeanTasks: 800, MeanDur: 1000, TaskDurCV: 2, Long: true},
			{Name: "long-large", Fraction: 0.0051, MeanTasks: 2500, MeanDur: 2000, TaskDurCV: 2, Long: true},
		},
	}
}

// Yahoo returns the Yahoo 2011 workload (paper recipe): ~9.4% long jobs
// holding ~98.3% of task-seconds.
func Yahoo() Spec {
	return Spec{
		Name:                   "yahoo",
		Cutoff:                 270,
		ShortPartitionFraction: 0.02,
		Clusters: []ClusterSpec{
			{Name: "short", Fraction: 0.9059, MeanTasks: 15, MeanDur: 30, TaskDurCV: 2},
			{Name: "long-medium", Fraction: 0.0700, MeanTasks: 120, MeanDur: 600, TaskDurCV: 2, Long: true},
			{Name: "long-large", Fraction: 0.0241, MeanTasks: 500, MeanDur: 1600, TaskDurCV: 2, Long: true},
		},
	}
}

// AllSpecs returns the four workload specs in the order of Table 1.
func AllSpecs() []Spec {
	return []Spec{Google(), ClouderaC(), Facebook(), Yahoo()}
}

// SpecByName returns the spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range AllSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown spec %q (want google, cloudera, facebook, or yahoo)", name)
}

// CalibratedInterArrival returns the mean job inter-arrival time (seconds)
// every tool generates the workload at unless told otherwise: the rate at
// which the second-smallest cluster size of the paper's sweep for that
// workload sits just above ~0.9 offered load, reproducing the paper's
// "overloaded at the smallest size, highly loaded at the next" regime.
func (s Spec) CalibratedInterArrival() float64 {
	switch s.Name {
	case "cloudera":
		return 1.5 // 20,000 nodes highly loaded
	case "facebook":
		return 1.0 // 90,000 nodes highly loaded
	case "yahoo":
		return 7.5 // 7,000 nodes highly loaded
	default:
		return 2.3 // google: 15,000 nodes ~0.87 median utilization
	}
}

// GenConfig parameterizes trace generation.
type GenConfig struct {
	NumJobs int
	// MeanInterArrival is the mean job inter-arrival time (seconds); job
	// submission times follow a Poisson process (§4.1).
	MeanInterArrival float64
	Seed             int64
}

// Generate synthesizes a trace from the spec. Generation is deterministic
// for a given (spec, config) pair. Jobs are drawn in id order and their
// Poisson arrivals assigned cumulatively in that order, so the trace comes
// out in submission order.
func Generate(spec Spec, cfg GenConfig) *Trace {
	src := randdist.New(cfg.Seed)
	jobs := make([]*Job, 0, cfg.NumJobs)
	for i := 0; i < cfg.NumJobs; i++ {
		cs := pickCluster(spec.Clusters, src.Float64())
		jobs = append(jobs, genJob(i, cs, src))
	}
	rescaleArrivals(jobs, cfg.MeanInterArrival, src.Fork())
	return &Trace{
		Name:                   spec.Name,
		Jobs:                   jobs,
		Cutoff:                 spec.Cutoff,
		ShortPartitionFraction: spec.ShortPartitionFraction,
	}
}

func pickCluster(clusters []ClusterSpec, u float64) ClusterSpec {
	total := 0.0
	for _, c := range clusters {
		total += c.Fraction
	}
	u *= total
	acc := 0.0
	for _, c := range clusters {
		acc += c.Fraction
		if u < acc {
			return c
		}
	}
	return clusters[len(clusters)-1]
}

// drawJobShape draws a job's shape — task count and mean task duration —
// from the cluster spec. Both the materializing and streaming generators
// call it, so the two consume identical draws.
func drawJobShape(cs ClusterSpec, src *randdist.Source) (n int, mean float64) {
	n = int(src.Exp(cs.MeanTasks))
	if n < 1 {
		n = 1
	}
	if cs.DurSigma > 0 {
		mean = src.LogNormal(math.Log(cs.MeanDur), cs.DurSigma)
	} else {
		mean = src.Exp(cs.MeanDur)
	}
	if mean <= 0 {
		mean = cs.MeanDur * 1e-3
	}
	return n, mean
}

// genJobInto regenerates j in place as job id drawn from cs, reusing the
// Durations backing array when it has capacity. SubmitTime is reset to 0;
// the caller assigns arrivals.
func genJobInto(j *Job, id int, cs ClusterSpec, src *randdist.Source) {
	n, mean := drawJobShape(cs, src)
	j.ID = id
	j.SubmitTime = 0
	j.ConstructedLong = cs.Long
	if cap(j.Durations) >= n {
		j.Durations = j.Durations[:n]
	} else {
		j.Durations = make([]float64, n)
	}
	sigma := cs.TaskDurCV * mean
	for i := range j.Durations {
		if sigma > 0 {
			j.Durations[i] = src.TruncGaussian(mean, sigma)
		} else {
			j.Durations[i] = mean
		}
	}
}

// skipJob consumes exactly the draws genJobInto would for one job from cs
// and returns its task count, without building the job. The streaming
// generator's metadata prescan runs on this, keeping pass one O(1) in
// memory while staying draw-for-draw aligned with pass two.
func skipJob(cs ClusterSpec, src *randdist.Source) int {
	n, mean := drawJobShape(cs, src)
	sigma := cs.TaskDurCV * mean
	if sigma > 0 {
		for i := 0; i < n; i++ {
			src.TruncGaussian(mean, sigma)
		}
	}
	return n
}

func genJob(id int, cs ClusterSpec, src *randdist.Source) *Job {
	j := &Job{}
	genJobInto(j, id, cs, src)
	return j
}

// MotivationWorkload builds the exact §2.3 scenario used for Figure 1:
// 1000 jobs, 95% short (100 tasks of 100 s each), 5% long (1000 tasks of
// 20000 s each), Poisson submissions with a 50 s mean inter-arrival time.
func MotivationWorkload(seed int64) *Trace {
	src := randdist.New(seed)
	const (
		numJobs   = 1000
		shortProb = 0.95
	)
	jobs := make([]*Job, 0, numJobs)
	for i := 0; i < numJobs; i++ {
		j := &Job{ID: i}
		if src.Float64() < shortProb {
			j.Durations = constantDurations(100, 100)
		} else {
			j.Durations = constantDurations(1000, 20000)
			j.ConstructedLong = true
		}
		jobs = append(jobs, j)
	}
	rescaleArrivals(jobs, 50, src.Fork())
	return &Trace{
		Name: "motivation",
		Jobs: jobs,
		// Any cutoff between 100 s and 20000 s separates the two classes.
		Cutoff:                 1000,
		ShortPartitionFraction: 0.10,
	}
}

func constantDurations(n int, d float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// ComputeStatsByConstruction computes Table 1/2 statistics using the
// generator's cluster membership (the paper deems every non-first cluster
// long), rather than the scheduler's cutoff classification.
func ComputeStatsByConstruction(t *Trace) Stats {
	return computeStats(t, func(j *Job, _ float64) bool { return j.ConstructedLong })
}
