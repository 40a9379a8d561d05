package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func job(id int, submit float64, durs ...float64) *Job {
	return &Job{ID: id, SubmitTime: submit, Durations: durs}
}

func TestJobAccessors(t *testing.T) {
	j := job(1, 0, 100, 200, 300)
	if j.NumTasks() != 3 {
		t.Fatalf("NumTasks = %d", j.NumTasks())
	}
	if j.AvgTaskDuration() != 200 {
		t.Fatalf("AvgTaskDuration = %v", j.AvgTaskDuration())
	}
	if j.TaskSeconds() != 600 {
		t.Fatalf("TaskSeconds = %v", j.TaskSeconds())
	}
	empty := &Job{ID: 2}
	if empty.AvgTaskDuration() != 0 {
		t.Fatal("empty job avg should be 0")
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{Jobs: []*Job{job(1, 0, 10), job(2, 5, 20)}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if got := good.MakespanLowerBound(); got != 5 {
		t.Fatalf("MakespanLowerBound = %v, want the last submit 5", got)
	}
	if got := (&Trace{}).MakespanLowerBound(); got != 0 {
		t.Fatalf("empty trace: MakespanLowerBound = %v, want 0", got)
	}
	cases := []*Trace{
		{Jobs: []*Job{job(1, 0, 10), job(1, 1, 10)}}, // duplicate id
		{Jobs: []*Job{job(2, 0, 10), job(1, 1, 10)}}, // descending id
		{Jobs: []*Job{job(1, 5, 10), job(2, 1, 10)}}, // submit time falls
		{Jobs: []*Job{job(1, -1, 10)}},               // negative submit
		{Jobs: []*Job{{ID: 1}}},                      // no tasks
		{Jobs: []*Job{job(1, 0, -5)}},                // negative duration
		{Jobs: []*Job{nil}},                          // nil job
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		job(1, 0, 10, 10),     // short: avg 10, TS 20
		job(2, 0, 1000, 1000), // long: avg 1000, TS 2000
		job(3, 0, 5, 5, 5, 5), // short: avg 5, TS 20
	}}
	s := ComputeStats(tr, 100)
	if s.TotalJobs != 3 || s.LongJobs != 1 {
		t.Fatalf("jobs = %d long = %d", s.TotalJobs, s.LongJobs)
	}
	if math.Abs(s.PctLongJobs-100.0/3) > 1e-9 {
		t.Fatalf("PctLongJobs = %v", s.PctLongJobs)
	}
	if math.Abs(s.PctLongTaskSeconds-100*2000.0/2040) > 1e-9 {
		t.Fatalf("PctLongTaskSeconds = %v", s.PctLongTaskSeconds)
	}
	if s.TotalTasks != 8 {
		t.Fatalf("TotalTasks = %d", s.TotalTasks)
	}
	// Duration ratio: long avg 1000 / short avg (10+5)/2 = 7.5 -> 133.3.
	if math.Abs(s.AvgTaskDurRatio-1000/7.5) > 1e-9 {
		t.Fatalf("AvgTaskDurRatio = %v", s.AvgTaskDurRatio)
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{
		Cutoff:                 1000,
		ShortPartitionFraction: 0.17,
		Jobs:                   []*Job{{ID: 1, SubmitTime: 10, Durations: []float64{100}, ConstructedLong: true}},
	}
	s := tr.Scale(0.001, 2)
	if s.Jobs[0].Durations[0] != 0.1 {
		t.Fatalf("scaled duration = %v", s.Jobs[0].Durations[0])
	}
	if s.Jobs[0].SubmitTime != 20 {
		t.Fatalf("scaled submit = %v", s.Jobs[0].SubmitTime)
	}
	if s.Cutoff != 1 {
		t.Fatalf("scaled cutoff = %v", s.Cutoff)
	}
	if !s.Jobs[0].ConstructedLong {
		t.Fatal("Scale dropped ConstructedLong")
	}
	// The original must be untouched.
	if tr.Jobs[0].Durations[0] != 100 {
		t.Fatal("Scale mutated the source trace")
	}
}

func TestCapTasksPreservesTaskSeconds(t *testing.T) {
	tr := &Trace{Jobs: []*Job{job(1, 0, 10, 20, 30, 40, 50, 60)}}
	capped := tr.CapTasks(3)
	j := capped.Jobs[0]
	if j.NumTasks() != 3 {
		t.Fatalf("capped to %d tasks, want 3", j.NumTasks())
	}
	if math.Abs(j.TaskSeconds()-210) > 1e-9 {
		t.Fatalf("task-seconds changed: %v, want 210", j.TaskSeconds())
	}
	// Small jobs pass through unchanged.
	small := tr.CapTasks(100)
	if small.Jobs[0].NumTasks() != 6 {
		t.Fatal("uncapped job was modified")
	}
}

// Property: CapTasks preserves per-job task-seconds for any job and cap.
func TestCapTasksProperty(t *testing.T) {
	check := func(raw []float64, capRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		durs := make([]float64, len(raw))
		for i, v := range raw {
			d := math.Abs(v)
			if math.IsNaN(d) || math.IsInf(d, 0) || d > 1e9 {
				d = 1
			}
			durs[i] = d
		}
		cap := int(capRaw)%len(durs) + 1
		tr := &Trace{Jobs: []*Job{{ID: 1, Durations: durs}}}
		capped := tr.CapTasks(cap)
		j := capped.Jobs[0]
		if j.NumTasks() > cap {
			return false
		}
		orig := tr.Jobs[0].TaskSeconds()
		diff := math.Abs(j.TaskSeconds() - orig)
		return diff <= 1e-9*math.Max(1, orig)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWithArrivals(t *testing.T) {
	tr := &Trace{Jobs: []*Job{job(1, 100, 1), job(2, 200, 1)}}
	out := tr.WithArrivals(5, 1)
	if out.Len() != 2 {
		t.Fatal("job count changed")
	}
	prev := 0.0
	for _, j := range out.Jobs {
		if j.SubmitTime < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = j.SubmitTime
	}
	// Determinism.
	out2 := tr.WithArrivals(5, 1)
	for i := range out.Jobs {
		if out.Jobs[i].SubmitTime != out2.Jobs[i].SubmitTime {
			t.Fatal("WithArrivals not deterministic")
		}
	}
}

func TestMeanTaskDuration(t *testing.T) {
	tr := &Trace{Jobs: []*Job{job(1, 0, 10, 20), job(2, 0, 30)}}
	if m := tr.MeanTaskDuration(); m != 20 {
		t.Fatalf("MeanTaskDuration = %v", m)
	}
	empty := &Trace{}
	if m := empty.MeanTaskDuration(); m != 0 {
		t.Fatalf("empty MeanTaskDuration = %v", m)
	}
}
