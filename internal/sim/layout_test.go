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
// to the garbage collector. An entry carries no arrival time either — only
// the golden test's waitRecorder wants one, and it keys arrivals itself —
// so a node queue's backing array moves 12 bytes per entry, not 24.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(simEvent{}); got != 16 {
		t.Errorf("sizeof(simEvent) = %d, want 16 (was 24 with a *jobState field)", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 12 {
		t.Errorf("sizeof(entry) = %d, want 12 (was 24 with a float64 arrival time, 32 with a *jobState field)", got)
	}
	for _, v := range []any{simEvent{}, entry{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v carries a pointer; it must stay pointer-free", typ)
		}
	}
	// A node holds a one-entry queue inline, so the common queue
	// operations read one node and no backing array: exactly one cache
	// line, which the page-aligned arena keeps each node on. Its fields
	// fill 56 bytes; explicit padding makes up the line.
	if got := unsafe.Sizeof(node{}); got != 64 {
		t.Errorf("sizeof(node) = %d, want 64", got)
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
	// A Step pops its event before dispatching it, so the pending count
	// peaks after some Step returns (or before the first).
	peak := s.eng.Pending()
	for s.eng.Step() {
		peak = max(peak, s.eng.Pending())
	}
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	// The in-flight model: at most one completion or probe round-trip
	// pending per busy slot, plus the probe bursts of jobs whose messages
	// are inside their 0.5 ms network flight (up to 2 probes per task),
	// plus the single chained submit. The widest job's burst bounds the
	// flight term for this arrival rate.
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
