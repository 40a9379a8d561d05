package experiments

import (
	"fmt"

	"repro/internal/liverun"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Fig16Config parameterizes the implementation-vs-simulation experiment
// (§4.10, Figures 16 and 17). The paper uses a 3300-job Google sample on
// 100 nodes with task durations scaled from seconds to milliseconds; the
// defaults below reproduce that, and smaller configurations trade fidelity
// for wall-clock time.
type Fig16Config struct {
	NumJobs  int
	NumNodes int
	// DurationScale multiplies trace task durations; the paper uses 1e-3
	// (seconds to milliseconds).
	DurationScale float64
	// LoadFactors are the swept values of (mean inter-arrival time) /
	// (mean task runtime); the paper sweeps 1 to 2.25.
	LoadFactors []float64
	Seed        int64
	// Workers bounds how many simulator runs execute concurrently (the
	// live-prototype runs stay serial regardless — they measure real
	// wall-clock time, and co-running prototypes would contend for CPU
	// and distort each other's latencies). Zero means GOMAXPROCS.
	Workers int
}

// DefaultFig16Config reproduces the paper's setup. A full run takes tens of
// minutes of wall-clock time because the prototype really sleeps.
func DefaultFig16Config() Fig16Config {
	return Fig16Config{
		NumJobs:       3300,
		NumNodes:      100,
		DurationScale: 1e-3,
		LoadFactors:   []float64{1, 1.2, 1.4, 1.6, 1.8, 2, 2.25},
		Seed:          42,
	}
}

// QuickFig16Config is a reduced setup for tests and benchmarks: fewer jobs,
// durations scaled to ~tens of milliseconds, three load points.
func QuickFig16Config() Fig16Config {
	return Fig16Config{
		NumJobs:       300,
		NumNodes:      100,
		DurationScale: 2e-4,
		LoadFactors:   []float64{1, 1.6, 2.25},
		Seed:          42,
	}
}

// Fig16Point is one load factor of Figures 16/17: Hawk normalized to
// Sparrow in the live prototype and in the simulator, per job class.
type Fig16Point struct {
	LoadFactor float64
	Impl       Ratios
	Sim        Ratios
}

// Fig16And17 runs the prototype and the simulator on the same scaled trace
// across load factors. Unlike the other drivers this one consumes real
// wall-clock time proportional to the scaled trace length.
func Fig16And17(cfg Fig16Config) ([]Fig16Point, error) {
	base := buildPrototypeTrace(cfg)
	meanDur := base.MeanTaskDuration()
	points := make([]Fig16Point, 0, len(cfg.LoadFactors))
	for _, k := range cfg.LoadFactors {
		t := base.WithArrivals(k*meanDur, cfg.Seed+int64(1000*k))

		implHawk, err := liverun.Run(t, policy.Config{NumNodes: cfg.NumNodes, Policy: "hawk", Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("fig16 live hawk k=%.2f: %w", k, err)
		}
		implSparrow, err := liverun.Run(t, policy.Config{NumNodes: cfg.NumNodes, Policy: "sparrow", Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("fig16 live sparrow k=%.2f: %w", k, err)
		}

		simHawk, simSparrow, err := runPair(t, cfg.NumNodes, "hawk", "sparrow", Scale{Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("fig16 sim k=%.2f: %w", k, err)
		}

		points = append(points, Fig16Point{
			LoadFactor: k,
			Impl:       ratiosFor(t, implHawk, implSparrow, t.Cutoff),
			Sim:        ratiosFor(t, simHawk, simSparrow, t.Cutoff),
		})
	}
	return points, nil
}

// buildPrototypeTrace takes the Google sample, caps job widths to fit the
// small cluster (keeping task-seconds constant, §4.1), and scales durations.
func buildPrototypeTrace(cfg Fig16Config) *workload.Trace {
	full := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs:          cfg.NumJobs,
		MeanInterArrival: 1, // overwritten per load factor
		Seed:             cfg.Seed,
	})
	capTasks := cfg.NumNodes / 3
	if capTasks < 1 {
		capTasks = 1
	}
	return full.CapTasks(capTasks).Scale(cfg.DurationScale, 1)
}
