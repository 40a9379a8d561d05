package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// testScale keeps experiment tests fast while preserving the load regime
// (load depends on the arrival rate, not the job count).
var testScale = Scale{NumJobs: 1500, Seed: 42, Runs: 1}

func TestTable1MatchesPaperShape(t *testing.T) {
	rows, err := Table1(Scale{NumJobs: 8000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	paper := map[string]struct{ long, ts float64 }{
		"google":   {10.00, 83.65},
		"cloudera": {5.02, 92.79},
		"facebook": {2.01, 99.79},
		"yahoo":    {9.41, 98.31},
	}
	for _, r := range rows {
		want := paper[r.Workload]
		if math.Abs(r.PctLongJobs-want.long) > 3 {
			t.Errorf("%s: %%long %.2f vs paper %.2f", r.Workload, r.PctLongJobs, want.long)
		}
		if math.Abs(r.PctLongTaskSeconds-want.ts) > 6 {
			t.Errorf("%s: %%TS %.2f vs paper %.2f", r.Workload, r.PctLongTaskSeconds, want.ts)
		}
	}
	if FormatTable1(rows) == "" {
		t.Fatal("empty rendering")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(Scale{NumJobs: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TotalJobs != 2000 {
			t.Errorf("%s: jobs = %d", r.Workload, r.TotalJobs)
		}
		if r.PctLongJobs <= 0 || r.PctLongJobs >= 50 {
			t.Errorf("%s: %%long = %v", r.Workload, r.PctLongJobs)
		}
	}
	if FormatTable2(rows) == "" {
		t.Fatal("empty rendering")
	}
}

// Figure 1's headline claim: under Sparrow on the loaded heterogeneous
// cluster, a large fraction of 100 s short jobs take over 15000 s, while
// the cluster still has idle servers (median utilization < 100%).
func TestFig1HeadOfLineBlocking(t *testing.T) {
	r, err := Fig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.FracOver15000s < 0.3 {
		t.Errorf("only %.0f%% of short jobs exceeded 15000 s; paper shows a large fraction",
			100*r.FracOver15000s)
	}
	if r.MedianUtil < 0.7 || r.MedianUtil > 1 {
		t.Errorf("median utilization %.2f outside the loaded-but-not-full regime", r.MedianUtil)
	}
	if len(r.ShortRuntimeCDF) == 0 {
		t.Error("no CDF points")
	}
}

func TestFig4Shapes(t *testing.T) {
	data, err := Fig4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("workloads = %d", len(data))
	}
	for _, d := range data {
		if len(d.LongDur) == 0 || len(d.ShortDur) == 0 || len(d.LongTasks) == 0 || len(d.ShortTasks) == 0 {
			t.Errorf("%s: empty CDFs", d.Workload)
		}
		// Long jobs must dominate short jobs in average task duration at
		// the median.
		if medianOf(d.LongDur) <= medianOf(d.ShortDur) {
			t.Errorf("%s: long median duration <= short median", d.Workload)
		}
	}
}

func medianOf(points []stats.CDFPoint) float64 {
	for _, p := range points {
		if p.Fraction >= 0.5 {
			return p.Value
		}
	}
	return 0
}

// The headline Figure 5 claim at reduced scale: at the high-load point
// Hawk improves short jobs substantially and long jobs are not much worse.
func TestFig5Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	pts, err := Fig5(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(NodeSweep("google")) {
		t.Fatalf("points = %d", len(pts))
	}
	// Find the most-loaded non-overloaded point (15000 nodes).
	var p15 *Fig5Point
	for i := range pts {
		if pts[i].X == 15000 {
			p15 = &pts[i]
		}
	}
	if p15 == nil {
		t.Fatal("no 15000-node point")
	}
	if p15.ShortP50 > 0.6 || p15.ShortP90 > 0.7 {
		t.Errorf("short ratios at 15000 nodes = %.2f/%.2f; paper shows large improvements",
			p15.ShortP50, p15.ShortP90)
	}
	if p15.LongP50 > 1.3 {
		t.Errorf("long p50 ratio at 15000 nodes = %.2f; paper shows improvement", p15.LongP50)
	}
	if p15.FracShortImproved < 0.6 {
		t.Errorf("fraction of short jobs improved = %.2f; paper reports 86%%", p15.FracShortImproved)
	}
	// At the largest cluster the schedulers converge.
	last := pts[len(pts)-1]
	if last.ShortP50 < 0.8 || last.ShortP50 > 1.2 {
		t.Errorf("idle-cluster short ratio = %.2f, want ~1", last.ShortP50)
	}
}

func TestFig7AblationDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	rows, err := Fig7(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch r.Variant {
		case "w/o stealing":
			// The paper: short jobs are greatly penalized without
			// stealing.
			if r.ShortP50 < 1.2 {
				t.Errorf("w/o stealing short p50 = %.2f, want > 1.2", r.ShortP50)
			}
		case "w/o centralized":
			// Long jobs take a significant hit without the centralized
			// scheduler.
			if r.LongP50 < 1.0 {
				t.Errorf("w/o centralized long p50 = %.2f, want >= 1", r.LongP50)
			}
		}
	}
}

func TestFig12CutoffRange(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	pts, err := Fig12And13(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// The paper's claim: benefits hold for the whole range of cutoffs.
	for _, p := range pts {
		if p.ShortP50 > 0.8 {
			t.Errorf("cutoff %.0f: short p50 ratio %.2f — benefit should hold across cutoffs",
				p.X, p.ShortP50)
		}
	}
}

func TestFig15MonotoneImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	t.Parallel()
	pts, err := Fig15(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.Cap != 1 || first.ShortP50 != 1 {
		t.Fatalf("baseline point wrong: %+v", first)
	}
	// Performance increases with the cap (paper: "performance increases
	// with an increase in the cap value").
	if last.ShortP50 > 0.8 {
		t.Errorf("cap 250 short p50 = %.2f, want clearly below 1", last.ShortP50)
	}
	// Cap 10 already gives a significant benefit.
	for _, p := range pts {
		if p.Cap == 10 && p.ShortP50 > 0.9 {
			t.Errorf("cap 10 short p50 = %.2f, want significant benefit", p.ShortP50)
		}
	}
}

func TestTraceForCapsWideJobs(t *testing.T) {
	tr := TraceFor(workload.Facebook(), Scale{NumJobs: 3000, Seed: 1})
	minNodes := NodeSweep("facebook")[0]
	for _, j := range tr.Jobs {
		if j.NumTasks() > minNodes {
			t.Fatalf("job %d has %d tasks > smallest cluster %d", j.ID, j.NumTasks(), minNodes)
		}
	}
}

func TestNodeSweepsAreSane(t *testing.T) {
	for _, name := range []string{"google", "cloudera", "facebook", "yahoo", "unknown"} {
		sweep := NodeSweep(name)
		if len(sweep) < 2 {
			t.Errorf("%s: sweep too small", name)
		}
		for i := 1; i < len(sweep); i++ {
			if sweep[i] <= sweep[i-1] {
				t.Errorf("%s: sweep not increasing", name)
			}
		}
	}
}

func TestRatiosForAlignsJobSets(t *testing.T) {
	// ratiosFor must compare identical job sets: with candidate ==
	// baseline, every ratio is exactly 1.
	tr, err := GoogleTrace(Scale{NumJobs: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr, policy.Config{NumNodes: 5000, Policy: "hawk", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := ratiosFor(tr, res, res, tr.Cutoff); got != (Ratios{1, 1, 1, 1}) {
		t.Fatalf("self-ratios = %+v, want all 1", got)
	}
}

// A recorded trace replaces the synthetic one, as long as its header says
// its cutoff: the records of an outside tool behind the minimal header read
// in, and behind a header without cutoff= they fail naming the way out,
// since hawkexp has no -cutoff.
func TestGoogleTraceFromAFile(t *testing.T) {
	want, err := GoogleTrace(Scale{NumJobs: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	recorded := filepath.Join(dir, "g.trace.gz")
	if err := workload.SaveSource(recorded, workload.NewTraceSource(want)); err != nil {
		t.Fatal(err)
	}
	got, err := GoogleTrace(Scale{TracePath: recorded})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("the recorded trace does not come back as it was saved (err %v)", err)
	}
	var buf bytes.Buffer
	if err := workload.WriteSource(&buf, workload.NewTraceSource(want)); err != nil {
		t.Fatal(err)
	}
	_, records, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	outside := func(name, header string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append([]byte(header), records...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	minimal := outside("minimal.trace", fmt.Sprintf("#hawk-trace v=1 cutoff=%v frac=%v jobs=%d\n", want.Cutoff, want.ShortPartitionFraction, want.Len()))
	got, err = GoogleTrace(Scale{TracePath: minimal})
	if err != nil || !reflect.DeepEqual(got.Jobs, want.Jobs) || got.Cutoff != want.Cutoff {
		t.Errorf("the records behind the minimal header do not come back as saved (err %v)", err)
	}
	noCutoff := outside("nocutoff.trace", fmt.Sprintf("#hawk-trace v=1 jobs=%d\n", want.Len()))
	_, err = GoogleTrace(Scale{TracePath: noCutoff})
	if err == nil || !strings.Contains(err.Error(), "carries no cutoff") ||
		!strings.Contains(err.Error(), "hawkgen -in "+noCutoff+" -cutoff") {
		t.Errorf("a header without a cutoff must fail naming it and the hawkgen conversion, got: %v", err)
	}
}
