// Package experiments reproduces every table and figure of the paper's
// evaluation (§2.3 and §4). Each driver builds the workload, runs the
// schedulers under comparison, and returns the rows or curve series the
// paper reports; cmd/hawkexp prints them (README "Commands").
//
// Rows and figure points go straight into golden CSV/JSON reports, so
// every driver must produce identical output run to run; hawklint's
// determinism analyzer guards the package (map iteration feeding output is
// the classic way this breaks):
//
//hawk:deterministic
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale controls how large an experiment's trace is. The paper replays
// 506,460 Google jobs; our synthetic default is 20,000 jobs with the
// arrival rate calibrated so a 15,000-node cluster sits at the paper's
// "highly loaded but not overloaded" point (~0.87 median utilization).
// Load depends on the arrival rate, not the job count, so smaller scales
// (for quick runs and benchmarks) preserve the comparisons with more noise.
type Scale struct {
	NumJobs int
	Seed    int64
	// Runs averages metrics over this many seeds where the paper does
	// (Figure 14 averages ten runs). Zero means one run.
	Runs int
	// Workers bounds how many simulations a sweep-shaped driver runs
	// concurrently (every figure fans its independent runs out over one
	// bounded pool, parallelMap). Zero means one worker per available CPU;
	// cmd/hawkexp threads its -jobs flag through here. Results are
	// byte-identical for any worker count, including 1 (serial).
	Workers int
	// Overlay is the part of a run description the caller, not the driver,
	// chooses; cmd/hawkexp fills it from -policy and the scenario flags
	// (cliflags.Apply). Its Policy is the candidate the comparison figures
	// evaluate against their baselines (empty means "hawk", the paper's
	// system). Its scenario planes — Churn, Heterogeneity, Schedulers,
	// Faults, NetworkDelay — apply to every simulator run whose own config
	// leaves that plane unset; a driver that sweeps a plane itself clears
	// it here first. The zero Overlay is the static, reliable cluster of
	// the paper's baseline evaluation. Other fields are ignored.
	Overlay policy.Config
	// TracePath, when set, replays a recorded hawk-trace file in place of
	// the synthetic Google trace in every experiment built on GoogleTrace
	// (cmd/hawkexp threads its -trace flag through here). Multi-workload
	// sweeps (Table 1/2, Figures 4 and 6) keep their synthetic traces —
	// one recording cannot stand in for four workload families.
	TracePath string
}

// apply lays the overlay's scenario planes under one run configuration,
// leaving the planes the config scripts itself untouched.
func (s Scale) apply(cfg policy.Config) policy.Config {
	o := s.Overlay
	if cfg.Churn == nil {
		cfg.Churn = o.Churn
	}
	if cfg.Heterogeneity == nil {
		cfg.Heterogeneity = o.Heterogeneity
	}
	if cfg.Schedulers == nil {
		cfg.Schedulers = o.Schedulers
	}
	if cfg.Faults == nil {
		cfg.Faults = o.Faults
	}
	if cfg.NetworkDelay == 0 {
		cfg.NetworkDelay = o.NetworkDelay
	}
	return cfg
}

// PolicyName returns the candidate policy, defaulting to "hawk".
func (s Scale) PolicyName() string {
	if s.Overlay.Policy == "" {
		return "hawk"
	}
	return s.Overlay.Policy
}

// DefaultScale is the scale cmd/hawkexp runs at without -quick.
func DefaultScale() Scale { return Scale{NumJobs: 20000, Seed: 42, Runs: 10} }

// QuickScale is a reduced scale for benchmarks and smoke tests.
func QuickScale() Scale { return Scale{NumJobs: 4000, Seed: 42, Runs: 3} }

// NodeSweep returns the cluster sizes (in nodes) the paper sweeps for a
// workload (Figures 5, 6).
func NodeSweep(name string) []int {
	switch name {
	case "google":
		return []int{10000, 15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000}
	case "cloudera":
		return []int{15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000}
	case "facebook":
		return []int{70000, 90000, 110000, 130000, 150000, 170000}
	case "yahoo":
		return []int{5000, 7000, 9000, 11000, 13000, 15000, 17000, 19000}
	default:
		return []int{10000, 15000, 20000, 25000}
	}
}

// GoogleTrace returns the Google workload at the given scale: the default
// synthetic trace, or — when the scale names a recorded trace file — that
// recording, materialized so the sweep's runs can share it. The recording's
// header must say its cutoff: hawkexp has no -cutoff to supply one.
func GoogleTrace(sc Scale) (*workload.Trace, error) {
	if sc.TracePath != "" {
		t, err := workload.LoadFile(sc.TracePath)
		if err == nil && t.Cutoff == 0 {
			err = fmt.Errorf("experiments: trace %s carries no cutoff; convert it first: hawkgen -in %s -cutoff C -out x.trace.gz",
				sc.TracePath, sc.TracePath)
		}
		return t, err
	}
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs:          sc.NumJobs,
		MeanInterArrival: workload.Google().CalibratedInterArrival(),
		Seed:             sc.Seed,
	}), nil
}

// TraceFor generates the trace for any workload spec at the given scale,
// capped so the smallest swept cluster can still probe-schedule every job
// (the paper applies the same scale-down rule to its prototype runs).
func TraceFor(spec workload.Spec, sc Scale) *workload.Trace {
	t := workload.Generate(spec, workload.GenConfig{
		NumJobs:          sc.NumJobs,
		MeanInterArrival: spec.CalibratedInterArrival(),
		Seed:             sc.Seed,
	})
	sweep := NodeSweep(spec.Name)
	minNodes := sweep[0]
	for _, n := range sweep {
		if n < minNodes {
			minNodes = n
		}
	}
	// Batch sampling needs at least one candidate node per task, so cap
	// job widths at the smallest swept cluster size (the paper applies
	// the same scale-down rule to its 100-node prototype runs). The caps
	// rarely bind: they only trim the extreme tail of the task-count
	// distributions.
	return t.CapTasks(minNodes)
}

// runConfigs fans a set of simulator runs on a shared trace out over one
// bounded worker pool and returns the reports in config order. Every
// sweep-shaped driver funnels through here (or runPairs), so a single
// Scale.Workers knob bounds the whole figure's parallelism and the single
// Scale.Overlay underlies every run.
func runConfigs(t *workload.Trace, cfgs []policy.Config, sc Scale) ([]*policy.Report, error) {
	return parallelMap(cfgs, sc.Workers, func(i int, cfg policy.Config) (*policy.Report, error) {
		return runPoint(i, t, sc.apply(cfg))
	})
}

// runPoint is point i of a sweep: one simulator run whose error names the
// point.
func runPoint(i int, t *workload.Trace, cfg policy.Config) (*policy.Report, error) {
	r, err := sim.Run(t, cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep point %d (policy %q, %d nodes, seed %d): %w",
			i, cfg.Policy, cfg.NumNodes, cfg.Seed, err)
	}
	return r, nil
}

// parallelMap runs fn over every item on a pool of at most workers
// goroutines (zero or negative means runtime.GOMAXPROCS) and returns the
// results in item order. Runs may share a *Trace: engines treat traces as
// read-only, and each run draws from random streams of its own.
//
// Items are claimed in index order, and a claimed item always runs. Once an
// fn fails no new item is claimed, and the error returned is the
// lowest-indexed failure's: every item below it ran and succeeded, so a
// parallel sweep fails exactly where a serial loop would. The results are
// only valid when the error is nil.
func parallelMap[T, R any](items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for range min(workers, len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if results[i], errs[i] = fn(i, items[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runPairs runs the candidate and baseline policies at every cluster size
// of a node sweep, all fanned out over one worker pool, and returns the
// (candidate, baseline) report pairs in nodes order.
func runPairs(t *workload.Trace, nodes []int, candidate, baseline string, sc Scale) ([][2]*policy.Report, error) {
	cfgs := make([]policy.Config, 0, 2*len(nodes))
	for _, n := range nodes {
		cfgs = append(cfgs,
			policy.Config{NumNodes: n, Policy: candidate, Seed: sc.Seed},
			policy.Config{NumNodes: n, Policy: baseline, Seed: sc.Seed})
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]*policy.Report, len(nodes))
	for i := range nodes {
		pairs[i] = [2]*policy.Report{reports[2*i], reports[2*i+1]}
	}
	return pairs, nil
}

// runPair runs the candidate and baseline policies on the same trace at one
// cluster size (concurrently, bounded by the scale's worker pool).
func runPair(t *workload.Trace, nodes int, candidate, baseline string, sc Scale) (*policy.Report, *policy.Report, error) {
	pairs, err := runPairs(t, []int{nodes}, candidate, baseline, sc)
	if err != nil {
		return nil, nil, err
	}
	return pairs[0][0], pairs[0][1], nil
}

// Ratios is the group every normalized figure plots: the candidate's p50 and
// p90 runtime over the baseline's, per job class.
type Ratios struct {
	ShortP50, ShortP90, LongP50, LongP90 float64
}

// RatioPoint is one x-position of a "candidate normalized to baseline"
// figure: percentile runtime ratios per job class, plus the baseline's
// median cluster utilization (the dotted context line in the figures).
type RatioPoint struct {
	X float64 // sweep variable (nodes, cutoff, cap, ...)
	Ratios
	BaselineUtil float64
}

// ratiosFor computes the percentile ratios for two results over a common
// trace, classifying jobs by exact estimate at the given cutoff so both
// sides use identical job sets. Report.Jobs is engine-independent, so the
// live prototype's reports go through here too.
func ratiosFor(t *workload.Trace, cand, base *policy.Report, cutoff float64) Ratios {
	candRT := allRuntimes(cand)
	baseRT := allRuntimes(base)
	// Iterate the trace, not a classification map: trace order is fixed, so
	// the collected slices are identical run to run (Percentile sorts, but
	// building the inputs in map order was still a determinism hazard).
	var candShort, candLong, baseShort, baseLong []float64
	for _, j := range t.Jobs {
		long := j.AvgTaskDuration() >= cutoff
		c, okc := candRT[j.ID]
		b, okb := baseRT[j.ID]
		if !okc || !okb {
			continue
		}
		if long {
			candLong = append(candLong, c)
			baseLong = append(baseLong, b)
		} else {
			candShort = append(candShort, c)
			baseShort = append(baseShort, b)
		}
	}
	return Ratios{
		ShortP50: stats.Ratio(stats.Percentile(candShort, 50), stats.Percentile(baseShort, 50)),
		ShortP90: stats.Ratio(stats.Percentile(candShort, 90), stats.Percentile(baseShort, 90)),
		LongP50:  stats.Ratio(stats.Percentile(candLong, 50), stats.Percentile(baseLong, 50)),
		LongP90:  stats.Ratio(stats.Percentile(candLong, 90), stats.Percentile(baseLong, 90)),
	}
}

func allRuntimes(r *policy.Report) map[int]float64 {
	out := make(map[int]float64, len(r.Jobs))
	for _, j := range r.Jobs {
		out[j.ID] = j.Runtime
	}
	return out
}
