package workload

import (
	"math"
	"testing"
)

func TestGenerateDeterminism(t *testing.T) {
	cfg := GenConfig{NumJobs: 500, MeanInterArrival: 2, Seed: 9}
	a := Generate(Google(), cfg)
	b := Generate(Google(), cfg)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.ID != jb.ID || ja.SubmitTime != jb.SubmitTime || ja.NumTasks() != jb.NumTasks() {
			t.Fatalf("job %d differs between identical generations", i)
		}
		for k := range ja.Durations {
			if ja.Durations[k] != jb.Durations[k] {
				t.Fatalf("job %d task %d duration differs", i, k)
			}
		}
	}
}

func TestGenerateValidAndSorted(t *testing.T) {
	for _, spec := range AllSpecs() {
		tr := Generate(spec, GenConfig{NumJobs: 1000, MeanInterArrival: 2, Seed: 3})
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if tr.Len() != 1000 {
			t.Fatalf("%s: generated %d jobs", spec.Name, tr.Len())
		}
		prev := 0.0
		for _, j := range tr.Jobs {
			if j.SubmitTime < prev {
				t.Fatalf("%s: submissions not sorted", spec.Name)
			}
			prev = j.SubmitTime
		}
		if tr.Cutoff != spec.Cutoff || tr.ShortPartitionFraction != spec.ShortPartitionFraction {
			t.Fatalf("%s: trace metadata not propagated", spec.Name)
		}
	}
}

// The generators must reproduce Table 1's published statistics within
// tolerance. Paper values: Google 10.00%/83.65%, Cloudera-c 5.02%/92.79%,
// Facebook 2.01%/99.79%, Yahoo 9.41%/98.31%.
func TestTable1Calibration(t *testing.T) {
	want := map[string]struct {
		pctLong, pctTS float64
		tolLong, tolTS float64
	}{
		"google":   {10.00, 83.65, 2.0, 5.0},
		"cloudera": {5.02, 92.79, 1.5, 4.0},
		"facebook": {2.01, 99.79, 1.0, 1.0},
		"yahoo":    {9.41, 98.31, 2.0, 1.5},
	}
	for _, spec := range AllSpecs() {
		tr := Generate(spec, GenConfig{NumJobs: 20000, MeanInterArrival: 2, Seed: 42})
		st := ComputeStatsByConstruction(tr)
		w := want[spec.Name]
		if math.Abs(st.PctLongJobs-w.pctLong) > w.tolLong {
			t.Errorf("%s: %%long jobs = %.2f, paper %.2f (tol %.1f)", spec.Name, st.PctLongJobs, w.pctLong, w.tolLong)
		}
		if math.Abs(st.PctLongTaskSeconds-w.pctTS) > w.tolTS {
			t.Errorf("%s: %%task-seconds = %.2f, paper %.2f (tol %.1f)", spec.Name, st.PctLongTaskSeconds, w.pctTS, w.tolTS)
		}
	}
}

// Classification by the default cutoff must roughly agree with the
// generator's construction classes: the trace is usable by the scheduler.
func TestCutoffClassificationAgreesWithConstruction(t *testing.T) {
	for _, spec := range AllSpecs() {
		tr := Generate(spec, GenConfig{NumJobs: 10000, MeanInterArrival: 2, Seed: 1})
		byCut := ComputeStats(tr, spec.Cutoff)
		byGen := ComputeStatsByConstruction(tr)
		// Within a factor of two is enough for the scheduler to behave
		// per the paper; exact agreement is impossible with the paper's
		// own exponential-draw recipe.
		if byCut.PctLongJobs < byGen.PctLongJobs/2 || byCut.PctLongJobs > byGen.PctLongJobs*2 {
			t.Errorf("%s: cutoff classifies %.2f%% long, construction %.2f%%",
				spec.Name, byCut.PctLongJobs, byGen.PctLongJobs)
		}
	}
}

func TestMotivationWorkload(t *testing.T) {
	tr := MotivationWorkload(1)
	if tr.Len() != 1000 {
		t.Fatalf("jobs = %d, want 1000", tr.Len())
	}
	short, long := 0, 0
	for _, j := range tr.Jobs {
		if j.ConstructedLong {
			long++
			if j.NumTasks() != 1000 || j.Durations[0] != 20000 {
				t.Fatalf("long job shape wrong: %d tasks x %v s", j.NumTasks(), j.Durations[0])
			}
		} else {
			short++
			if j.NumTasks() != 100 || j.Durations[0] != 100 {
				t.Fatalf("short job shape wrong: %d tasks x %v s", j.NumTasks(), j.Durations[0])
			}
		}
	}
	// 95% short with binomial noise.
	if short < 920 || short > 980 {
		t.Fatalf("short jobs = %d, want ~950", short)
	}
	// Mean inter-arrival ~50 s.
	mean := tr.MakespanLowerBound() / float64(tr.Len())
	if mean < 40 || mean > 60 {
		t.Fatalf("mean inter-arrival = %v, want ~50", mean)
	}
}

func TestSpecByName(t *testing.T) {
	// The second column is the calibrated arrival rate every tool generates
	// the workload at; the experiments' load regimes depend on these values.
	for name, ia := range map[string]float64{"google": 2.3, "cloudera": 1.5, "facebook": 1.0, "yahoo": 7.5} {
		spec, err := SpecByName(name)
		if err != nil || spec.Name != name {
			t.Fatalf("SpecByName(%s) = %v, %v", name, spec.Name, err)
		}
		if got := spec.CalibratedInterArrival(); got != ia {
			t.Errorf("%s: CalibratedInterArrival = %g, want %g", name, got, ia)
		}
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("unknown spec should error")
	}
}

func TestClusterFractionsRespected(t *testing.T) {
	// A spec with a single cluster must put every job in it.
	spec := Spec{
		Name:   "mono",
		Cutoff: 10,
		Clusters: []ClusterSpec{
			{Name: "only", Fraction: 1, MeanTasks: 5, MeanDur: 100, TaskDurCV: 0, Long: true},
		},
	}
	tr := Generate(spec, GenConfig{NumJobs: 200, MeanInterArrival: 1, Seed: 2})
	for _, j := range tr.Jobs {
		if !j.ConstructedLong {
			t.Fatal("job escaped the only cluster")
		}
	}
}

func TestZeroCVGivesConstantDurations(t *testing.T) {
	spec := Spec{
		Name:   "const",
		Cutoff: 10,
		Clusters: []ClusterSpec{
			{Name: "c", Fraction: 1, MeanTasks: 10, MeanDur: 100, TaskDurCV: 0},
		},
	}
	tr := Generate(spec, GenConfig{NumJobs: 50, MeanInterArrival: 1, Seed: 2})
	for _, j := range tr.Jobs {
		for _, d := range j.Durations {
			if d != j.Durations[0] {
				t.Fatal("CV=0 should give identical durations within a job")
			}
		}
	}
}

func TestGoogleFigure4Ranges(t *testing.T) {
	// Figure 4 sanity: long-job mean durations mostly in 1000-15000 s;
	// short-job durations mostly under 800 s.
	tr := Generate(Google(), GenConfig{NumJobs: 10000, MeanInterArrival: 2, Seed: 5})
	var longIn, longTotal, shortIn, shortTotal int
	for _, j := range tr.Jobs {
		avg := j.AvgTaskDuration()
		if j.ConstructedLong {
			longTotal++
			if avg >= 1000 && avg <= 15000 {
				longIn++
			}
		} else {
			shortTotal++
			if avg <= 800 {
				shortIn++
			}
		}
	}
	if frac := float64(longIn) / float64(longTotal); frac < 0.75 {
		t.Errorf("only %.0f%% of long jobs in Figure 4a's range", 100*frac)
	}
	if frac := float64(shortIn) / float64(shortTotal); frac < 0.75 {
		t.Errorf("only %.0f%% of short jobs in Figure 4b's range", 100*frac)
	}
}
