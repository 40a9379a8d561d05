package sim

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/policy"
	"repro/internal/workload"
)

// The benchmarks sample allocation behavior; these tests pin it. After a
// warm-up prefix has grown every scratch buffer, node queue, and the event
// heap to its steady-state capacity, stepping the engine through the heart
// of a run must allocate nothing — each subtest exercises one hot path on
// the flat arena layout: submit→probe placement (Sparrow), the steal path
// in both the Figure 3 and random-position forms (Hawk), and central
// assignment (§3.7).
//
// The only amortized-growth slice left on the path is the utilization
// series, so its sampler is pushed past the horizon (the series lives in
// internal/stats and cannot be pre-grown from here). The per-entry waits go
// to fixed-capacity reservoirs and need no such care.
//
// hawklint's hotalloc analyzer guards the same property statically: the
// functions these paths run through are annotated //hawk:hotpath (see
// internal/lint), which statically forbids the constructs that would make
// this pin regress — capturing closures, map allocation, append without
// backing-array reuse, interface boxing, fmt calls. AllocsPerRun stays as
// the runtime ground truth that the static rule set actually suffices.
func steadyStateSim(t *testing.T, tr *workload.Trace, cfg policy.Config, warm int) *simulation {
	t.Helper()
	s, err := newSimulation(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.nextSample = math.Inf(1)
	runEvents(s, warm)
	if s.eng.Pending() == 0 {
		t.Fatalf("simulation drained within %d warm-up events — enlarge the trace", warm)
	}
	return s
}

// runEvents executes the next events events, or as many as are left.
func runEvents(s *simulation, events int) {
	for i := 0; i < events && s.eng.Step(); i++ {
	}
}

// steadyMallocs is the number of heap allocations the next events events
// make.
func steadyMallocs(t *testing.T, s *simulation, events int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runEvents(s, events)
	runtime.ReadMemStats(&after)
	if s.eng.Pending() == 0 {
		t.Fatal("simulation drained during measurement — enlarge the trace")
	}
	return after.Mallocs - before.Mallocs
}

// measureSteadyEvents requires the average event of the window to allocate
// nothing: fewer allocations than events, the bound AllocsPerRun's integer
// average gives. These clusters are still filling up inside their windows,
// so node queues seeing a new depth for the first time do grow; what the
// bound catches is an allocation that every event of some kind makes. The
// burst subtest, whose workload is periodic, requires an exact zero.
func measureSteadyEvents(t *testing.T, s *simulation, events int) {
	t.Helper()
	if n := steadyMallocs(t, s, events); n >= uint64(events) {
		t.Errorf("steady-state event dispatch allocated %d times in %d events, want none per event", n, events)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	t.Run("submit-probe", func(t *testing.T) {
		// All-short load on Sparrow: every measured event is a submit,
		// probe arrival, probe round-trip, or completion.
		tr := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: 4000, MeanInterArrival: 0.2, Seed: 7,
		})
		s := steadyStateSim(t, tr, policy.Config{NumNodes: 2000, Policy: "sparrow", Seed: 1}, 20000)
		measureSteadyEvents(t, s, 30000)
	})

	t.Run("steal", func(t *testing.T) {
		// A mixed trace under load, so idle nodes steal constantly
		// (candidate sampling, eligible-group scans, queue surgery,
		// enqueueFront); BenchmarkStealScan times the same path.
		tr := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: 1500, MeanInterArrival: 0.5, Seed: 13,
		})
		s := steadyStateSim(t, tr, policy.Config{NumNodes: 6000, Policy: "hawk", Seed: 5}, 30000)
		measureSteadyEvents(t, s, 40000)
		if s.res.StealAttempts == 0 {
			t.Fatal("measured window exercised no steal attempts")
		}
	})

	t.Run("steal-random-positions", func(t *testing.T) {
		// The §3.6 ablation path: RandomShortIndicesInto through the
		// threaded scratch buffers.
		tr := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: 1500, MeanInterArrival: 0.5, Seed: 13,
		})
		s := steadyStateSim(t, tr, policy.Config{
			NumNodes: 6000, Policy: "hawk", Seed: 5, StealRandomPositions: true,
		}, 30000)
		measureSteadyEvents(t, s, 40000)
		if s.res.StealSuccesses == 0 {
			t.Fatal("measured window exercised no random-position steals")
		}
	})

	t.Run("central-assign", func(t *testing.T) {
		tr := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: 800, MeanInterArrival: 0.5, Seed: 3,
		})
		s := steadyStateSim(t, tr, policy.Config{NumNodes: 3000, Policy: "centralized", Seed: 2}, 10000)
		measureSteadyEvents(t, s, 20000)
		if s.res.CentralAssigns == 0 {
			t.Fatal("measured window exercised no central assignments")
		}
	})

	// The post lanes' whole cycle, with an exact zero. One 40-task job every
	// two seconds on an idle 200-node Sparrow cluster is periodic: its 80
	// probes are posted back to back, each one that finds its node idle posts
	// a round trip, and by the next submit every task has finished — so once
	// every node has queued a probe nothing has anything left to grow. The
	// first job grows each lane's ring of 32-byte records past its initial
	// 16 slots to its high-water mark of 128, and at up to 80 records a job
	// the rings wrap every other job. Nothing but the submit chain and the
	// completions enters the priority queue.
	t.Run("burst", func(t *testing.T) {
		const tasks, jobs = 40, 100
		durs := make([]float64, tasks)
		for i := range durs {
			durs[i] = 1
		}
		src := newLoopSource(5*jobs, 2, durs...)
		perJob := 1 + 2*tasks + 2*tasks + tasks // submit, probes, round trips, completions
		s := steadyStateSimSource(t, src, policy.Config{NumNodes: 200, Policy: "sparrow", Seed: 1}, jobs*perJob)
		events, entries := s.eng.Executed(), s.eng.Entries()
		// The counter is the process's: the quietest of three windows, so
		// that a stray allocation by the runtime or the test harness is not
		// charged to the cycle (one the cycle made would be in all three).
		mallocs := steadyMallocs(t, s, jobs*perJob)
		for range 2 {
			mallocs = min(mallocs, steadyMallocs(t, s, jobs*perJob))
		}
		if mallocs != 0 {
			t.Errorf("post, merge and ring wrap-around allocated %d times over %d jobs, want 0", mallocs, jobs)
		}
		events, entries = s.eng.Executed()-events, s.eng.Entries()-entries
		if posted := events - entries; posted < 3*(jobs-1)*4*tasks {
			t.Fatalf("%d events took %d queue entries: the window's probes and round trips did not all bypass the queue", events, entries)
		}
	})

	// The dynamic-cluster refactor must not cost the churn-free fast path
	// its zero-allocation steady state — including with heterogeneous
	// node speeds, which stay on the static membership samplers (speed
	// scaling is a per-execution division, not an allocation).
	t.Run("heterogeneous-churn-free", func(t *testing.T) {
		tr := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: 1500, MeanInterArrival: 0.5, Seed: 13,
		})
		s := steadyStateSim(t, tr, policy.Config{
			NumNodes: 6000, Policy: "hawk", Seed: 5,
			Heterogeneity: &policy.Heterogeneity{Classes: []policy.SpeedClass{{Fraction: 0.4, Speed: 0.5}}},
		}, 30000)
		if s.speeds == nil {
			t.Fatal("heterogeneity spec did not materialize speed factors")
		}
		if s.dyn != nil || s.view.Dynamic() {
			t.Fatal("a churn-free run must stay on the static membership fast path")
		}
		measureSteadyEvents(t, s, 40000)
		if s.res.StealAttempts == 0 {
			t.Fatal("measured window exercised no steal attempts")
		}
	})

	// The gray-failure plane must be free when unused: a fault-free config
	// carries no fault state at all (flt nil, membership static), so every
	// hot path takes the same branches — and the same zero allocations — it
	// took before the fault plane existed.
	t.Run("fault-free-fast-path", func(t *testing.T) {
		tr := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: 1500, MeanInterArrival: 0.5, Seed: 13,
		})
		s := steadyStateSim(t, tr, policy.Config{NumNodes: 6000, Policy: "hawk", Seed: 5}, 30000)
		if s.flt != nil || s.dyn != nil || s.view.Dynamic() {
			t.Fatal("a fault-free run must carry no fault or membership state")
		}
		measureSteadyEvents(t, s, 40000)
	})
}

// sparrowRunAlloc runs jobs Google jobs under Sparrow and returns the bytes
// the run allocated and the probes it sent.
func sparrowRunAlloc(t *testing.T, jobs int, discard bool) (uint64, int64) {
	t.Helper()
	src := workload.NewGeneratorSource(workload.Google(), workload.GenConfig{
		NumJobs: jobs, MeanInterArrival: 2.3, Seed: 11,
	})
	cfg := policy.Config{NumNodes: 15000, Policy: "sparrow", Seed: 9, DiscardJobReports: discard}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunSource(src, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("RunSource(%d jobs): %v", jobs, err)
	}
	if !discard && len(res.Jobs) != jobs {
		t.Fatalf("run retained %d job reports, want %d", len(res.Jobs), jobs)
	}
	return after.TotalAlloc - before.TotalAlloc, res.ProbesSent
}

// TestRetainedRunReportIsOJobs pins what keeping per-job reports costs: the
// Jobs slice, and nothing per queue entry. The same run with the reports
// discarded makes the same decisions and the same engine allocations, so
// the difference between the two is what retention allocates. Sparrow sends
// two probes per task, about 55 queue entries per job here; when each
// entry's wait was appended to a slice that difference was 40 bytes per
// probe and grew fourfold from the short run to the long one.
func TestRetainedRunReportIsOJobs(t *testing.T) {
	for _, jobs := range []int{5000, 20000} {
		retained, probes := sparrowRunAlloc(t, jobs, false)
		discarded, _ := sparrowRunAlloc(t, jobs, true)
		extra := int64(retained) - int64(discarded)
		budget := int64(jobs)*int64(unsafe.Sizeof(policy.JobReport{})) + 64<<10
		t.Logf("%d jobs, %d probes: retaining reports allocates %d B more than discarding them (budget %d B)", jobs, probes, extra, budget)
		if extra > budget {
			t.Errorf("%d jobs: retaining reports allocates %d B, %.1f B per probe; want at most the Jobs slice (%d B)",
				jobs, extra, float64(extra)/float64(probes), budget)
		}
	}
}
