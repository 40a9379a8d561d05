package experiments

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig1Result holds the §2.3 motivation experiment: short-job runtime CDF
// under Sparrow on a loaded heterogeneous cluster (Figure 1).
type Fig1Result struct {
	ShortRuntimeCDF []stats.CDFPoint
	MedianUtil      float64
	MaxUtil         float64
	// FracOver15000s is the fraction of short jobs with runtimes above
	// 15000 s, the "large fraction" the paper calls out (execution time
	// is only 100 s).
	FracOver15000s float64
}

// Fig1 runs the motivation scenario: 1000 jobs (95% short: 100 tasks x
// 100 s; 5% long: 1000 tasks x 20000 s), Poisson arrivals with 50 s mean,
// 15000 nodes, Sparrow.
func Fig1(seed int64) (*Fig1Result, error) {
	t := workload.MotivationWorkload(seed)
	r, err := sim.Run(t, policy.Config{NumNodes: 15000, Policy: "sparrow", Seed: seed})
	if err != nil {
		return nil, err
	}
	short := r.ShortRuntimes()
	return &Fig1Result{
		ShortRuntimeCDF: stats.CDF(short),
		MedianUtil:      r.Utilization.MedianUpTo(t.MakespanLowerBound()),
		MaxUtil:         r.Utilization.Max(),
		FracOver15000s:  1 - stats.FractionAtOrBelow(short, 15000),
	}, nil
}

// Fig4Data holds the per-workload CDFs of Figure 4: average task duration
// per job and number of tasks per job, split long/short by construction.
type Fig4Data struct {
	Workload   string
	LongDur    []stats.CDFPoint // (a) long jobs, avg task duration
	ShortDur   []stats.CDFPoint // (b) short jobs, avg task duration
	LongTasks  []stats.CDFPoint // (c) long jobs, tasks per job
	ShortTasks []stats.CDFPoint // (d) short jobs, tasks per job
}

// Fig4 computes the workload-property CDFs for all four traces, generating
// and characterizing each trace on its own worker.
func Fig4(sc Scale) ([]Fig4Data, error) {
	return parallelMap(workload.AllSpecs(), sc.Workers,
		func(_ int, spec workload.Spec) (Fig4Data, error) {
			t := TraceFor(spec, sc)
			var longDur, shortDur, longTasks, shortTasks []float64
			for _, j := range t.Jobs {
				if j.ConstructedLong {
					longDur = append(longDur, j.AvgTaskDuration())
					longTasks = append(longTasks, float64(j.NumTasks()))
				} else {
					shortDur = append(shortDur, j.AvgTaskDuration())
					shortTasks = append(shortTasks, float64(j.NumTasks()))
				}
			}
			return Fig4Data{
				Workload:   spec.Name,
				LongDur:    stats.CDF(longDur),
				ShortDur:   stats.CDF(shortDur),
				LongTasks:  stats.CDF(longTasks),
				ShortTasks: stats.CDF(shortTasks),
			}, nil
		})
}

// Fig5Point is one cluster size of Figure 5: Hawk normalized to Sparrow on
// the Google trace, plus the 5c additional metrics.
type Fig5Point struct {
	RatioPoint
	// Figure 5c metrics.
	FracShortImproved float64 // fraction of short jobs with Hawk <= Sparrow
	FracLongImproved  float64
	AvgRatioShort     float64 // mean Hawk runtime / mean Sparrow runtime
	AvgRatioLong      float64
}

// Fig5 sweeps cluster size on the Google trace, comparing Hawk to Sparrow
// (Figures 5a, 5b, 5c).
func Fig5(sc Scale) ([]Fig5Point, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	nodeSweep := NodeSweep("google")
	pairs, err := runPairs(t, nodeSweep, sc.PolicyName(), "sparrow", sc)
	if err != nil {
		return nil, err
	}
	points := make([]Fig5Point, 0, len(nodeSweep))
	for i, nodes := range nodeSweep {
		rh, rs := pairs[i][0], pairs[i][1]
		p := Fig5Point{RatioPoint: ratioPoint(t, rh, rs, float64(nodes))}
		shortCmp := stats.ComparePaired(rh.RuntimesByID(false), rs.RuntimesByID(false))
		longCmp := stats.ComparePaired(rh.RuntimesByID(true), rs.RuntimesByID(true))
		p.FracShortImproved = shortCmp.FractionImprovedOrEqual
		p.FracLongImproved = longCmp.FractionImprovedOrEqual
		p.AvgRatioShort = shortCmp.MeanRuntimeRatio
		p.AvgRatioLong = longCmp.MeanRuntimeRatio
		points = append(points, p)
	}
	return points, nil
}

func ratioPoint(t *workload.Trace, cand, base *policy.Report, x float64) RatioPoint {
	return RatioPoint{
		X:            x,
		Ratios:       ratiosFor(t, cand, base, t.Cutoff),
		BaselineUtil: base.Utilization.MedianUpTo(t.MakespanLowerBound()),
	}
}

// Fig6Series is one sub-figure of Figure 6: Hawk normalized to Sparrow on
// a derived trace (the paper plots the 90th percentiles plus utilization).
type Fig6Series struct {
	Workload string
	Points   []RatioPoint
}

// Fig6 sweeps cluster sizes on the Cloudera, Facebook, and Yahoo traces.
// Trace generation parallelizes per workload; the full cross product of
// (workload, cluster size, scheduler) simulations — the Facebook series
// alone reaches 170,000 simulated nodes — then fans out over one pool.
func Fig6(sc Scale) ([]Fig6Series, error) {
	specs := []workload.Spec{workload.ClouderaC(), workload.Facebook(), workload.Yahoo()}
	traces, err := parallelMap(specs, sc.Workers,
		func(_ int, spec workload.Spec) (*workload.Trace, error) {
			return TraceFor(spec, sc), nil
		})
	if err != nil {
		return nil, err
	}
	type point struct {
		trace *workload.Trace
		cfg   policy.Config
	}
	var pts []point
	for i, spec := range specs {
		for _, nodes := range NodeSweep(spec.Name) {
			pts = append(pts,
				point{traces[i], sc.apply(policy.Config{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed})},
				point{traces[i], sc.apply(policy.Config{NumNodes: nodes, Policy: "sparrow", Seed: sc.Seed})})
		}
	}
	reports, err := parallelMap(pts, sc.Workers, func(i int, p point) (*policy.Report, error) {
		return runPoint(i, p.trace, p.cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	series := make([]Fig6Series, 0, len(specs))
	idx := 0
	for i, spec := range specs {
		s := Fig6Series{Workload: spec.Name}
		for _, nodes := range NodeSweep(spec.Name) {
			rh, rs := reports[idx], reports[idx+1]
			idx += 2
			s.Points = append(s.Points, ratioPoint(traces[i], rh, rs, float64(nodes)))
		}
		series = append(series, s)
	}
	return series, nil
}

// Fig7Row is one bar group of Figure 7: a Hawk ablation normalized to full
// Hawk at 15000 nodes on the Google trace.
type Fig7Row struct {
	Variant string // "w/o centralized", "w/o partition", "w/o stealing"
	Ratios
}

// Fig7 runs the component breakdown: disabling each of Hawk's mechanisms in
// turn and normalizing to the full system.
func Fig7(sc Scale) ([]Fig7Row, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	names := []string{"w/o centralized", "w/o partition", "w/o stealing"}
	cfgs := []policy.Config{
		{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed}, // full system, the normalization baseline
		{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed, DisableCentral: true},
		{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed, DisablePartition: true},
		{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed, DisableStealing: true},
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	full := reports[0]
	rows := make([]Fig7Row, 0, len(names))
	for i, name := range names {
		rows = append(rows, Fig7Row{Variant: name, Ratios: ratiosFor(t, reports[i+1], full, t.Cutoff)})
	}
	return rows, nil
}

// Fig8And9 compares Hawk to the fully centralized scheduler across cluster
// sizes on the Google trace (Figure 8: short jobs; Figure 9: long jobs).
func Fig8And9(sc Scale) ([]RatioPoint, error) { return googleNodeSweep(sc, "centralized") }

// Fig10And11 compares Hawk to the split cluster across cluster sizes on the
// Google trace (Figure 10: short jobs; Figure 11: long jobs).
func Fig10And11(sc Scale) ([]RatioPoint, error) { return googleNodeSweep(sc, "split") }

// googleNodeSweep normalizes the candidate policy to the named baseline at
// every cluster size of the Google node sweep.
func googleNodeSweep(sc Scale, baseline string) ([]RatioPoint, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	nodeSweep := NodeSweep("google")
	pairs, err := runPairs(t, nodeSweep, sc.PolicyName(), baseline, sc)
	if err != nil {
		return nil, err
	}
	points := make([]RatioPoint, 0, len(nodeSweep))
	for i, nodes := range nodeSweep {
		points = append(points, ratioPoint(t, pairs[i][0], pairs[i][1], float64(nodes)))
	}
	return points, nil
}

// Fig12And13 sweeps the long/short cutoff at 15000 nodes, Hawk normalized
// to Sparrow (Figure 12: long jobs; Figure 13: short jobs). Jobs are
// (re)classified at each cutoff for reporting, as in the paper.
func Fig12And13(sc Scale) ([]RatioPoint, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	cutoffs := []float64{750, 1000, 1129, 1300, 1500, 2000}
	cfgs := make([]policy.Config, 0, 1+len(cutoffs))
	cfgs = append(cfgs, policy.Config{NumNodes: nodes, Policy: "sparrow", Seed: sc.Seed})
	for _, cutoff := range cutoffs {
		cfgs = append(cfgs, policy.Config{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed, Cutoff: cutoff})
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("fig12: %w", err)
	}
	rs := reports[0]
	points := make([]RatioPoint, 0, len(cutoffs))
	for i, cutoff := range cutoffs {
		points = append(points, RatioPoint{
			X:            cutoff,
			Ratios:       ratiosFor(t, reports[i+1], rs, cutoff),
			BaselineUtil: rs.Utilization.MedianUpTo(t.MakespanLowerBound()),
		})
	}
	return points, nil
}

// Fig14Point is one mis-estimation range of Figure 14: Hawk with inaccurate
// estimates normalized to Sparrow, long jobs (classified without
// mis-estimation), averaged over several runs.
type Fig14Point struct {
	Lo, Hi  float64
	LongP50 float64
	LongP90 float64
}

// Fig14 sweeps the mis-estimation magnitude. Each range is averaged over
// sc.Runs seeds, as the paper averages over ten runs.
func Fig14(sc Scale) ([]Fig14Point, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	runs := sc.Runs
	if runs < 1 {
		runs = 1
	}
	ranges := [][2]float64{{0.1, 1.9}, {0.2, 1.8}, {0.3, 1.7}, {0.4, 1.6}, {0.5, 1.5}, {0.6, 1.4}, {0.7, 1.3}}
	// One flat sweep covers the whole figure. The Sparrow baseline depends
	// only on the seed, so it runs once per seed and is shared across
	// mis-estimation ranges (the serial loop re-ran it per range); the
	// reports are identical either way because runs are deterministic.
	cfgs := make([]policy.Config, 0, runs+len(ranges)*runs)
	for run := 0; run < runs; run++ {
		cfgs = append(cfgs, policy.Config{NumNodes: nodes, Policy: "sparrow", Seed: sc.Seed + int64(run)})
	}
	for _, rg := range ranges {
		for run := 0; run < runs; run++ {
			cfgs = append(cfgs, policy.Config{
				NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed + int64(run),
				MisestimateLo: rg[0], MisestimateHi: rg[1],
			})
		}
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("fig14: %w", err)
	}
	sparrow := reports[:runs]
	points := make([]Fig14Point, 0, len(ranges))
	for ri, rg := range ranges {
		var sum50, sum90 float64
		for run := 0; run < runs; run++ {
			rh := reports[runs+ri*runs+run]
			// Classify by exact estimates: "the set of jobs classified
			// as long when no mis-estimations are present".
			r := ratiosFor(t, rh, sparrow[run], t.Cutoff)
			sum50 += r.LongP50
			sum90 += r.LongP90
		}
		points = append(points, Fig14Point{
			Lo: rg[0], Hi: rg[1],
			LongP50: sum50 / float64(runs),
			LongP90: sum90 / float64(runs),
		})
	}
	return points, nil
}

// Fig15Point is one stealing-cap setting of Figure 15: Hawk with the given
// cap normalized to Hawk with cap 1, short jobs.
type Fig15Point struct {
	Cap int
	Ratios
}

// Fig15 sweeps the maximum number of nodes contacted per steal attempt.
func Fig15(sc Scale) ([]Fig15Point, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	caps := []int{1, 2, 3, 4, 5, 10, 15, 20, 25, 50, 75, 100, 250}
	cfgs := make([]policy.Config, len(caps))
	for i, stealCap := range caps {
		cfgs[i] = policy.Config{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed, StealCap: stealCap}
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("fig15: %w", err)
	}
	base := reports[0] // cap 1, the figure's normalization baseline
	points := make([]Fig15Point, 0, len(caps))
	for i, stealCap := range caps {
		points = append(points, Fig15Point{Cap: stealCap, Ratios: ratiosFor(t, reports[i], base, t.Cutoff)})
	}
	return points, nil
}
