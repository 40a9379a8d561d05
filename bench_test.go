package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact at a reduced scale
// (load regimes preserved; see internal/experiments) and reports the
// headline numbers through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports. cmd/hawkexp runs the full
// 20000-job versions (README "Commands").

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScale keeps each benchmark iteration in the seconds range while
// preserving the paper's load regimes.
var benchScale = experiments.Scale{NumJobs: 4000, Seed: 42, Runs: 1}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.PctLongJobs, "pctLongJobs_"+r.Workload)
			b.ReportMetric(r.PctLongTaskSeconds, "pctTaskSec_"+r.Workload)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.TotalJobs), "jobs_"+r.Workload)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchScale.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.FracOver15000s, "pctShortOver15000s")
		b.ReportMetric(100*r.MedianUtil, "medianUtilPct")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range data {
			if len(d.LongDur) == 0 {
				b.Fatalf("%s: empty CDF", d.Workload)
			}
		}
		b.ReportMetric(float64(len(data)), "workloads")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			suffix := fmt.Sprintf("_n%dk", int(p.X)/1000)
			b.ReportMetric(p.ShortP50, "shortP50"+suffix)
			b.ReportMetric(p.LongP50, "longP50"+suffix)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	// The Facebook sweep reaches 170000 simulated nodes; keep one
	// iteration tractable by reporting only the per-trace extremes.
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			hi := s.Points[0]
			lo := s.Points[len(s.Points)-1]
			b.ReportMetric(hi.ShortP90, "shortP90_loaded_"+s.Workload)
			b.ReportMetric(lo.ShortP90, "shortP90_idle_"+s.Workload)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			key := map[string]string{
				"w/o centralized": "noCentral",
				"w/o partition":   "noPartition",
				"w/o stealing":    "noStealing",
			}[r.Variant]
			b.ReportMetric(r.ShortP50, "shortP50_"+key)
			b.ReportMetric(r.LongP50, "longP50_"+key)
		}
	}
}

func BenchmarkFig8And9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8And9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.X == 15000 {
				b.ReportMetric(p.ShortP90, "shortP90_vsCentral_n15k")
				b.ReportMetric(p.LongP50, "longP50_vsCentral_n15k")
			}
		}
	}
}

func BenchmarkFig10And11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig10And11(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.X == 15000 {
				b.ReportMetric(p.ShortP50, "shortP50_vsSplit_n15k")
				b.ReportMetric(p.LongP50, "longP50_vsSplit_n15k")
			}
		}
	}
}

func BenchmarkFig12And13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12And13(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			suffix := fmt.Sprintf("_cut%d", int(p.X))
			b.ReportMetric(p.ShortP50, "shortP50"+suffix)
			b.ReportMetric(p.LongP90, "longP90"+suffix)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig14(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			suffix := fmt.Sprintf("_%.0f_%.0f", 10*p.Lo, 10*p.Hi)
			b.ReportMetric(p.LongP50, "longP50"+suffix)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig15(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Cap == 10 || p.Cap == 250 {
				b.ReportMetric(p.ShortP50, fmt.Sprintf("shortP50_cap%d", p.Cap))
			}
		}
	}
}

func BenchmarkFig16And17(b *testing.B) {
	// The live prototype really sleeps, so this is the slowest benchmark:
	// a trimmed trace and a single high-load point keep one iteration
	// around ten seconds of wall-clock time.
	cfg := experiments.Fig16Config{
		NumJobs:       80,
		NumNodes:      100,
		NumSchedulers: 10,
		DurationScale: 1e-4,
		LoadFactors:   []float64{1},
		Seed:          42,
	}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig16And17(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := pts[0]
		b.ReportMetric(p.Impl.ShortP50, "implShortP50")
		b.ReportMetric(p.Sim.ShortP50, "simShortP50")
		b.ReportMetric(p.Impl.LongP50, "implLongP50")
		b.ReportMetric(p.Sim.LongP50, "simLongP50")
	}
}

// BenchmarkSimulatorThroughput measures the raw discrete-event simulator:
// events processed per second of wall-clock time on the default Google
// workload at the paper's headline operating point.
func BenchmarkSimulatorThroughput(b *testing.B) {
	trace, err := experiments.GoogleTrace(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{NumNodes: 15000, Policy: "hawk", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

// BenchmarkGoogleScale is the cluster-scale point the data-oriented core
// exists for: a 50000-job Google trace on the paper's 15000-node headline
// cluster — more than a million tasks through one simulation. At this size
// memory traffic dominates: the node and job arenas, int32 event payloads,
// and lazy chained submission (the event heap stays O(in-flight) instead
// of preloading 50k submit events) are what keep it tractable. Runs in
// CI's benchmark-regression gate alongside SimulatorThroughput,
// LargeCluster, and CentralQueue.
func BenchmarkGoogleScale(b *testing.B) {
	trace, err := experiments.GoogleTrace(experiments.Scale{NumJobs: 50000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	tasks := 0
	for _, j := range trace.Jobs {
		tasks += j.NumTasks()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{NumNodes: 15000, Policy: "hawk", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(tasks), "tasks/op")
	}
}

// BenchmarkStreamGoogleScale is the streaming pipeline's headline point: an
// 80000-job Google workload (≈2.2 million tasks) decoded job by job from a
// GeneratorSource and run with per-job reports discarded, so the simulation
// holds O(in-flight jobs + slots) memory however long the trace — the
// configuration that makes full-Google-trace-length runs tractable. The
// -benchmem bytes/op is the regression gate for that memory bound: it is
// dominated by the fixed arenas (15000 nodes), not the job count. Runs in
// CI's benchmark-regression gate (the GoogleScale pattern matches it); the
// materialized BenchmarkGoogleScale stays as the retained-reports baseline.
func BenchmarkStreamGoogleScale(b *testing.B) {
	src := workload.NewGeneratorSource(workload.Google(), workload.GenConfig{
		NumJobs: 80000, MeanInterArrival: 2.3, Seed: 42,
	})
	tasks := src.Meta().TotalTasks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		res, err := sim.RunSource(src, policy.Config{
			NumNodes: 15000, Policy: "hawk", Seed: 7, DiscardJobReports: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(tasks), "tasks/op")
	}
}

// BenchmarkLargeCluster gates scaling regressions that the 100-node-scale
// figure benchmarks and the default SimulatorThroughput point cannot see:
// a 12000-node cluster under a mixed short/long trace at an operating
// point with heavy work stealing (tens of thousands of steal attempts per
// run), so the steal path — candidate sampling, eligible-group scans,
// queue surgery — dominates alongside raw event dispatch. It runs in CI's
// benchmark-regression gate next to SimulatorThroughput and CentralQueue.
func BenchmarkLargeCluster(b *testing.B) {
	trace := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 3000, MeanInterArrival: 0.5, Seed: 13,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{NumNodes: 12000, Policy: "hawk", Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(res.StealAttempts), "stealAttempts/op")
		b.ReportMetric(float64(res.EntriesStolen), "entriesStolen/op")
	}
}

// BenchmarkChurnScale is BenchmarkLargeCluster's operating point run
// through a rolling-failure scenario: two waves of 600 node failures and
// recoveries (5% of the cluster each) while the steal-heavy trace is in
// flight. It gates the membership-aware dynamic path that the static
// benchmarks never enter — alive-list sampling on every probe and steal,
// incarnation-stamped events, failure re-routing, and the central queue's
// server removal/re-add — so a regression in the dynamic cluster model is
// caught even though the static fast path stays zero-overhead. Runs in
// CI's benchmark-regression gate next to the static benchmarks.
func BenchmarkChurnScale(b *testing.B) {
	trace := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 3000, MeanInterArrival: 0.5, Seed: 13,
	})
	churn := &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 200, Kind: policy.ChurnFail, Count: 600},
		{At: 500, Kind: policy.ChurnRecover, Count: 600},
		{At: 800, Kind: policy.ChurnFail, Count: 600},
		{At: 1100, Kind: policy.ChurnRecover, Count: 600},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{NumNodes: 12000, Policy: "hawk", Seed: 5, Churn: churn})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(res.TasksReexecuted), "reexecuted/op")
		b.ReportMetric(float64(res.StealAttempts), "stealAttempts/op")
	}
}

// BenchmarkMultiScheduler is BenchmarkLargeCluster's operating point run
// under the distributed multi-scheduler model: ten schedulers with stale
// snapshots sharing the 12000-node cluster, so the optimistic claim/commit
// machinery — per-scheduler queue mirrors, SyncFrom copies on every
// snapshot refresh, claim-version checks, conflicted-placement retries —
// runs at scale on top of the ordinary event dispatch. A coarse snapshot
// cadence keeps the schedulers in the mutually-stale regime where conflicts
// actually occur (see internal/experiments.SchedulerSweep). It gates the
// multi-scheduler path in CI's benchmark-regression gate; the N=1
// configuration is identical to BenchmarkLargeCluster's, so the delta
// between the two is the model's overhead.
func BenchmarkMultiScheduler(b *testing.B) {
	trace := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 3000, MeanInterArrival: 0.5, Seed: 13,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{
			NumNodes: 12000, Policy: "hawk", Seed: 5,
			Schedulers: &policy.SchedulerSpec{Count: 10, SnapshotInterval: 60},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(res.PlacementConflicts), "conflicts/op")
		b.ReportMetric(float64(res.SnapshotRefreshes), "refreshes/op")
	}
}

// BenchmarkFaultInjection is BenchmarkLargeCluster's operating point run
// through the gray-failure plane: 1% loss on every message class plus
// delay jitter on the 12000-node steal-heavy trace, so every send draws a
// loss decision and a jitter delay from the fault stream and the dropped
// tail exercises the timeout/backoff retry events. It gates the fault
// plane's overhead in CI's benchmark-regression gate; the fault-free
// configuration is identical to BenchmarkLargeCluster's, so the delta
// between the two is the model's cost.
func BenchmarkFaultInjection(b *testing.B) {
	trace := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 3000, MeanInterArrival: 0.5, Seed: 13,
	})
	faults := policy.UniformLoss(0.01)
	faults.Jitter, faults.MaxRetries = 0.001, 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{NumNodes: 12000, Policy: "hawk", Seed: 5, Faults: &faults})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(res.MessagesDropped.Total()), "dropped/op")
		b.ReportMetric(float64(res.ProbeRetries), "probeRetries/op")
	}
}

// BenchmarkCentralQueue runs a whole simulation under the fully centralized
// policy at cluster scale, so every task goes through the §3.7 priority
// queue — on top of trace replay, the event queue and the node model. The
// queue on its own is timed call by call in internal/core
// (BenchmarkCentralQueue{Assign,Started,Finished,Cycle,SyncFrom}).
func BenchmarkCentralQueue(b *testing.B) {
	trace := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 500, MeanInterArrival: 1, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, policy.Config{NumNodes: 10000, Policy: "centralized", Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CentralAssigns), "assigns/op")
	}
}

// BenchmarkAblationStealPositions quantifies the §3.6 design argument:
// Figure 3's consecutive-group stealing vs stealing short entries from
// random queue positions, both normalized to Sparrow.
func BenchmarkAblationStealPositions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationStealPosition(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			key := "group"
			if r.Policy == "random-positions" {
				key = "random"
			}
			b.ReportMetric(r.ShortP50, "shortP50_"+key)
			b.ReportMetric(r.ShortP90, "shortP90_"+key)
		}
	}
}

// BenchmarkAblationProbeRatio sweeps the batch-sampling probe ratio that
// the paper fixes at 2 on the Sparrow authors' advice (§4.1).
func BenchmarkAblationProbeRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationProbeRatio(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.ShortP50, fmt.Sprintf("shortP50_%s_d%d", p.Policy, p.Ratio))
		}
	}
}
