package experiments

import (
	"math"
	"testing"
)

func TestFig6AllTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	// Facebook's long tasks run for thousands of seconds, so the trace
	// must span well past them for the load regime to establish itself.
	series, err := Fig6(Scale{NumJobs: 8000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(NodeSweep(s.Workload)) {
			t.Errorf("%s: %d points", s.Workload, len(s.Points))
		}
		// The paper's claim: benefits hold across all traces — at the
		// most-loaded plotted points Hawk improves short jobs.
		improved := false
		for _, p := range s.Points {
			if !math.IsNaN(p.ShortP90) && p.ShortP90 < 0.9 {
				improved = true
			}
			if p.BaselineUtil < 0 || p.BaselineUtil > 1 {
				t.Errorf("%s: utilization %v out of range", s.Workload, p.BaselineUtil)
			}
		}
		if !improved {
			t.Errorf("%s: Hawk never improved short p90 across the sweep", s.Workload)
		}
	}
}

func TestFig8And9Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	pts, err := Fig8And9(Scale{NumJobs: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(NodeSweep("google")) {
		t.Fatalf("points = %d", len(pts))
	}
	// Paper: long jobs are slightly better centralized (Figure 9), and
	// both schedulers converge on light clusters. Our centralized
	// baseline observes exact queue state with zero scheduling latency,
	// so it serves short jobs better than the paper's; we assert Hawk
	// stays competitive (bounded worse)
	// rather than strictly better under load.
	for _, p := range pts {
		if !math.IsNaN(p.LongP50) && p.LongP50 < 0.85 {
			t.Errorf("n=%.0f: long p50 = %.2f — centralized should be >= Hawk for longs", p.X, p.LongP50)
		}
		if !math.IsNaN(p.ShortP90) && p.ShortP90 > 2.5 {
			t.Errorf("n=%.0f: short p90 = %.2f — Hawk should stay competitive with centralized", p.X, p.ShortP90)
		}
	}
	last := pts[len(pts)-1]
	if last.ShortP50 < 0.85 || last.ShortP50 > 1.15 || last.LongP50 < 0.85 || last.LongP50 > 1.15 {
		t.Errorf("light-load point should converge to ~1, got short %.2f long %.2f", last.ShortP50, last.LongP50)
	}
}

func TestFig10And11Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	pts, err := Fig10And11(Scale{NumJobs: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Hawk fares significantly better for short jobs in the
	// middle of the sweep (split-cluster shorts cannot use the general
	// partition), slightly worse for long jobs.
	best := math.Inf(1)
	for _, p := range pts {
		if p.ShortP50 < best {
			best = p.ShortP50
		}
	}
	if best > 0.7 {
		t.Errorf("best short p50 vs split = %.2f, want clear improvement", best)
	}
	for _, p := range pts {
		if !math.IsNaN(p.LongP50) && p.LongP50 < 0.8 {
			t.Errorf("n=%.0f: long p50 = %.2f — split should be >= Hawk for longs", p.X, p.LongP50)
		}
	}
}

func TestFig14Robustness(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	pts, err := Fig14(Scale{NumJobs: 2000, Seed: 42, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	// Paper: "Hawk is robust to mis-estimations" — long-job ratios stay
	// in a sane band across all magnitudes (no blow-up).
	for _, p := range pts {
		if math.IsNaN(p.LongP50) || p.LongP50 <= 0 || p.LongP50 > 2 {
			t.Errorf("range %.1f-%.1f: long p50 ratio %v out of band", p.Lo, p.Hi, p.LongP50)
		}
		if p.Lo >= p.Hi {
			t.Errorf("bad range %v-%v", p.Lo, p.Hi)
		}
	}
}

func TestFig16And17Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("live prototype too slow for -short")
	}
	t.Parallel()
	cfg := Fig16Config{
		NumJobs:       40,
		NumNodes:      50,
		DurationScale: 1e-4,
		LoadFactors:   []float64{1.2},
		Seed:          42,
	}
	pts, err := Fig16And17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	p := pts[0]
	// Both engines must produce finite, positive ratios from the same
	// trace; agreement within a loose band is the §4.10 claim ("the
	// simulation and implementation experiments agree and show similar
	// trends") — at this tiny scale we only require sanity.
	for name, q := range map[string]Ratios{"impl": p.Impl, "sim": p.Sim} {
		for metric, v := range map[string]float64{
			"shortP50": q.ShortP50, "shortP90": q.ShortP90,
			"longP50": q.LongP50, "longP90": q.LongP90,
		} {
			if math.IsNaN(v) || v <= 0 {
				t.Errorf("%s %s = %v", name, metric, v)
			}
		}
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	d := DefaultFig16Config()
	if d.NumJobs != 3300 || d.NumNodes != 100 {
		t.Errorf("default fig16 config deviates from §4.10: %+v", d)
	}
	if d.DurationScale != 1e-3 {
		t.Errorf("paper scales durations 1000x, got %v", d.DurationScale)
	}
	if len(d.LoadFactors) != 7 || d.LoadFactors[0] != 1 || d.LoadFactors[6] != 2.25 {
		t.Errorf("load factors = %v", d.LoadFactors)
	}
	q := QuickFig16Config()
	if q.NumJobs >= d.NumJobs {
		t.Error("quick config should be smaller than the default")
	}
	if DefaultScale().NumJobs <= QuickScale().NumJobs {
		t.Error("default scale should exceed quick scale")
	}
}
