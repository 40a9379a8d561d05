package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/policy"
)

// How the --trace 1 measurement spends its runs. The budget's remainder
// goes to the isolated timing loops, a fixed share each.
const (
	startupRuns    = 5  // hawksim -list-policies, for hawksim.startup_s
	tracedChildren = 3  // full hawksim runs, for hawksim.cpu_s and other_s
	tracedPairs    = 2  // in-process runs, untraced and traced, for overhead_frac
	timingSlices   = 80 // each isolated timing loop gets budget/timingSlices
)

// measureLayers is the --trace 1 measurement. It returns the spans of the
// last traced run for writing out once measuring is over.
func measureLayers(res *result, r *runner, ref *reference, budget time.Duration, buildS float64) (*recorder, error) {
	m := &res.metrics
	w, in := r.w, r.in

	// hawksim from outside: process start-up, then whole runs.
	var startup, wall, cpu []float64
	for i := 0; i < startupRuns; i++ {
		s, err := r.startup()
		if err != nil {
			return nil, err
		}
		startup = append(startup, s)
	}
	// Every per-layer timing is raw host time; the slowdown around the
	// child runs says what kind of minute they were taken in.
	_, slowdown := ref.bracketed(func() (float64, bool) {
		c := r.run(nil)
		res.attempted++
		if c.err != nil {
			res.fail(c.err)
		} else {
			wall = append(wall, c.wallS)
			cpu = append(cpu, c.cpuS)
		}
		return c.wallS, res.attempted < tracedChildren
	})
	if r.first == nil {
		return nil, fmt.Errorf("no hawksim run of %s succeeded: %v", w.name, res.failures)
	}

	// The same run in-process, untraced and traced in alternating order.
	// Both must write exactly the bytes the child wrote.
	csvPath, jsonPath := filepath.Join(r.dir, "inproc.csv"), filepath.Join(r.dir, "inproc.json")
	var rec *recorder
	var rep *policy.Report
	pipeline := func(traced bool) (float64, error) {
		var cur *recorder
		if traced {
			cur = newRecorder(fmt.Sprintf("%s-seed%d", w.name, in.seed), 2*in.meta.NumJobs+16)
		}
		t0 := time.Now()
		got, err := runPipeline(w, in.path, in.seed, csvPath, jsonPath, cur)
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		res.attempted++
		if err := sameOutputs(r.first, csvPath, jsonPath); err != nil {
			res.fail(fmt.Errorf("in-process run (traced=%v): %w", traced, err))
		}
		rep = got
		if traced {
			rec = cur
		}
		return d, nil
	}
	var overhead, plain []float64
	for i := 0; i < tracedPairs; i++ {
		secs := map[bool]float64{}
		for _, traced := range []bool{i%2 == 1, i%2 == 0} {
			var err error
			if secs[traced], err = pipeline(traced); err != nil {
				return nil, err
			}
		}
		overhead = append(overhead, secs[true]/secs[false]-1)
		plain = append(plain, secs[false])
	}

	so, err := runSimOnly(w, in.trace, in.seed)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if so.report.Events != rep.Events || so.report.TasksExecuted != rep.TasksExecuted {
		res.fail(fmt.Errorf("in-memory run made %d events / %d tasks, file run %d / %d",
			so.report.Events, so.report.TasksExecuted, rep.Events, rep.TasksExecuted))
	}

	if err := isolatedLayerMetrics(m, w, in, rep, budget/timingSlices); err != nil {
		return nil, err
	}
	simMetrics(m, so, r.simStat)

	// trace.*: the traced run's spans. A layer's self time is its span
	// minus the child spans inside it.
	sec := func(name string) float64 { d, _ := rec.total(name); return d.Seconds() }
	runS := sec(spanRun)
	nextS := sec(spanOpen) + sec(spanNext)
	sinkS := sec(spanSink)
	simSelfS := sec(spanSim) - sec(spanNext) - sinkS
	saveS := sec(spanSinkOpen) + sec(spanSaveCSV) + sec(spanSaveJSON)
	m.add("trace.run_s", runS, "s")
	m.add("trace.workload_next_s", nextS, "s")
	m.add("trace.policy_sink_s", sinkS, "s")
	m.add("trace.sim_self_s", simSelfS, "s")
	m.add("trace.policy_save_s", saveS, "s")
	m.add("trace.overhead_frac", median(overhead), "ratio")
	// The root span's own time is glue (config, deferred closes). More
	// than 1 % of the run — and more than a millisecond, below which a
	// single preemption decides — means a layer call lost its span.
	if gap := math.Abs(runS - (nextS + sinkS + simSelfS + saveS)); gap > 0.01*runS && gap > 1e-3 {
		res.fail(fmt.Errorf("trace: layer spans leave %.1f%% of hawksim.run unaccounted (limit 1%%)", 100*gap/runS))
	}

	m.add("host.slowdown", median(slowdown), "ratio")
	m.add("hawksim.wall_s", median(wall), "s")
	m.add("hawksim.cpu_s", median(cpu), "s")
	m.add("hawksim.startup_s", median(startup), "s")
	m.add("hawksim.build_s", buildS, "s")
	// What the process adds around the library calls: start-up, flag
	// parsing, the probing first open, the printed summary, exit.
	m.add("hawksim.other_s", median(wall)-median(plain), "s")
	return rec, nil
}
