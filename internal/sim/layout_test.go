package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/policy"
	"repro/internal/workload"
)

// The flat-layout size pins. The event payload is copied by every heap
// sift and the queue entry by every steal and queue scan, so their sizes
// are direct multipliers on the simulator's dominant loops. The pointered
// layout this PR replaced was 24 bytes per event (kind, central, int32
// ref, *jobState, float64 dur) and 32 bytes per entry (kind, *jobState,
// two float64s); the int32-arena layout must stay strictly smaller, and
// both must stay pointer-free so the event heap and node queues are opaque
// to the garbage collector.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(simEvent{}); got != 16 {
		t.Errorf("sizeof(simEvent) = %d, want 16 (was 24 with a *jobState field)", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Errorf("sizeof(entry) = %d, want 24 (was 32 with a *jobState field)", got)
	}
	for _, v := range []any{simEvent{}, entry{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v carries a pointer; it must stay pointer-free", typ)
		}
	}
	// The arena elements are not copied per event, but node size scales
	// with cluster size (170k nodes in the Figure 6 sweep) — keep it to
	// one cache line per pair.
	if got := unsafe.Sizeof(node{}); got > 40 {
		t.Errorf("sizeof(node) = %d, want <= 40", got)
	}
}

// pointerFree reports whether values of t hold nothing the garbage
// collector must scan: strings, slices, maps, channels, funcs and
// interfaces all carry a pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// Lazy chained submission must bound the event heap by in-flight state,
// not by trace length: the eager engine preloaded one submit event per
// trace job, so its peak pending length started at len(jobs)+1 and memory
// scaled with the trace. With chaining, at most one submit event is
// pending at a time and the peak tracks busy slots plus messages in their
// network flight.
func TestLazySubmissionBoundsEventHeap(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 8000, MeanInterArrival: 1, Seed: 3,
	})
	s, err := newSimulation(tr, policy.Config{NumNodes: 500, Policy: "hawk", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	peak := s.eng.MaxPending()
	// The in-flight model: at most one completion or probe round-trip
	// pending per busy slot, plus the probe bursts of jobs whose messages
	// are inside their 0.5 ms network flight (up to 2 probes per task),
	// plus the single chained submit and the sampler tick. The widest
	// job's burst bounds the flight term for this arrival rate.
	maxTasks := 0
	for _, j := range tr.Jobs {
		if n := j.NumTasks(); n > maxTasks {
			maxTasks = n
		}
	}
	bound := s.slots + 2*s.cfg.ProbeRatio*maxTasks + 64
	t.Logf("peak pending = %d for %d jobs on %d slots (in-flight bound %d)",
		peak, tr.Len(), s.slots, bound)
	// The eager engine's floor alone was len(jobs)+1 before the first
	// event fired; the in-flight bound does not grow with the trace, so
	// the peak must sit below both it and that old floor.
	if peak > bound || peak > tr.Len() {
		t.Errorf("peak pending events = %d, want O(in-flight) <= %d; O(trace) would be >= %d",
			peak, bound, tr.Len()+1)
	}
}

// Job-state slots recycle on every run, so the arena tracks the peak number
// of jobs in flight whatever the source: Run used to size it to the trace.
// The point is loaded, not overloaded (the 15 000-node Google point scaled
// to 6 000 nodes), where in-flight jobs do not grow with the trace.
func TestArenaBoundedOnEveryRun(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 8000, MeanInterArrival: 5.75, Seed: 11,
	})
	s, err := newSimulation(tr, policy.Config{NumNodes: 6000, Policy: "hawk", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("arena holds %d slots after %d jobs", len(s.jobs), len(res.Jobs))
	if len(res.Jobs) != tr.Len() || len(s.jobs) > tr.Len()/8 {
		t.Errorf("completed %d of %d jobs in an arena of %d slots, want every job and at most %d slots",
			len(res.Jobs), tr.Len(), len(s.jobs), tr.Len()/8)
	}
}

// An unsorted trace must schedule identically to its time-sorted form: the
// submitOrder permutation exists precisely so lazy chaining reproduces the
// eager heap's (submit time, trace position) ordering.
func TestUnsortedTraceMatchesSorted(t *testing.T) {
	sorted := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 120, MeanInterArrival: 0.5, Seed: 21,
	})
	// Scramble deterministically, keeping the same *workload.Job values.
	shuffled := &workload.Trace{
		Name:                   sorted.Name,
		Jobs:                   append([]*workload.Job(nil), sorted.Jobs...),
		Cutoff:                 sorted.Cutoff,
		ShortPartitionFraction: sorted.ShortPartitionFraction,
	}
	for i := range shuffled.Jobs {
		j := (i*7 + 3) % len(shuffled.Jobs)
		shuffled.Jobs[i], shuffled.Jobs[j] = shuffled.Jobs[j], shuffled.Jobs[i]
	}

	cfg := policy.Config{NumNodes: 400, Policy: "hawk", Seed: 5}
	a, err := Run(sorted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shuffled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.StealSuccesses != b.StealSuccesses || a.Events != b.Events {
		t.Fatalf("unsorted trace diverged: makespan %v vs %v, steals %d vs %d, events %d vs %d",
			a.Makespan, b.Makespan, a.StealSuccesses, b.StealSuccesses, a.Events, b.Events)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job report %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}
