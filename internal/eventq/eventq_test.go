package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// newClosureEngine instantiates the typed engine with a closure payload so
// the ordering tests read naturally. Production users (internal/sim) use a
// flat struct payload instead — see TestZeroAllocSteadyState for the
// allocation contract that design exists to honor.
func newClosureEngine() *Engine[func()] {
	return New(func(_ float64, fn func()) { fn() }, 0)
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := newClosureEngine()
	var fired []float64
	times := []float64{5, 1, 3, 2, 4, 0.5}
	for _, at := range times {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := newClosureEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken events out of scheduling order at %d: %v", i, order[:i+1])
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := newClosureEngine()
	e.At(10, func() {
		if e.Now() != 10 {
			t.Errorf("Now() = %v inside event at 10", e.Now())
		}
	})
	e.Run()
	if e.Now() != 10 {
		t.Fatalf("final Now() = %v, want 10", e.Now())
	}
}

func TestDispatchSeesEventTime(t *testing.T) {
	// The dispatch function receives the clock already advanced to the
	// event's timestamp, and it matches Now().
	var seen []float64
	e := New(func(now float64, at float64) {
		seen = append(seen, now)
		if now != at {
			t.Errorf("dispatched at now=%v, payload says %v", now, at)
		}
	}, 0)
	for _, at := range []float64{3, 1, 2} {
		e.At(at, at)
	}
	e.Run()
	if !sort.Float64sAreSorted(seen) || len(seen) != 3 {
		t.Fatalf("dispatch times = %v", seen)
	}
}

func TestNilDispatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil dispatch did not panic")
		}
	}()
	New[int](nil, 0)
}

func TestPastSchedulingClamps(t *testing.T) {
	e := newClosureEngine()
	var secondTime float64 = -1
	e.At(10, func() {
		// Scheduling in the past must clamp to now, not rewind time.
		e.At(5, func() { secondTime = e.Now() })
	})
	e.Run()
	if secondTime != 10 {
		t.Fatalf("past-scheduled event ran at %v, want clamped to 10", secondTime)
	}
}

func TestAfterRelative(t *testing.T) {
	e := newClosureEngine()
	var at float64
	e.At(3, func() {
		e.After(4, func() { at = e.Now() })
	})
	e.Run()
	if at != 7 {
		t.Fatalf("After(4) from t=3 ran at %v, want 7", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	// A chain of events each scheduling the next must run to completion.
	e := newClosureEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != 1000 {
		t.Fatalf("chain executed %d steps, want 1000", count)
	}
	if e.Now() != 999 {
		t.Fatalf("final time %v, want 999", e.Now())
	}
}

func TestStep(t *testing.T) {
	e := newClosureEngine()
	if e.Step() {
		t.Fatal("Step on empty engine should return false")
	}
	ran := false
	e.At(1, func() { ran = true })
	if !e.Step() {
		t.Fatal("Step should execute the pending event")
	}
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed())
	}
}

// TestCapacityHint pins New's pre-sizing contract: a positive hint reserves
// heap capacity up front (no growth copies while pending stays within it),
// and a zero hint is valid — the heap simply grows on demand.
func TestCapacityHint(t *testing.T) {
	e := New(func(float64, int) {}, 128)
	if got := e.Cap(); got < 128 {
		t.Fatalf("Cap() = %d after New with hint 128", got)
	}
	for i := 0; i < 128; i++ {
		e.At(float64(i), i)
	}
	if got := e.Cap(); got != 128 {
		t.Fatalf("heap grew to cap %d despite fitting the hint", got)
	}

	zero := New(func(float64, int) {}, 0)
	if got := zero.Cap(); got != 0 {
		t.Fatalf("Cap() = %d after New with hint 0, want 0", got)
	}
	sum := 0
	dispatchSum := New(func(_ float64, v int) { sum += v }, 0)
	for i := 1; i <= 100; i++ {
		dispatchSum.At(float64(i), i)
	}
	dispatchSum.Run()
	if sum != 5050 {
		t.Fatalf("hint-0 engine dispatched sum %d, want 5050", sum)
	}
}

// TestZeroAllocSteadyState is the contract the typed-event redesign exists
// for: with a struct payload and sufficient heap capacity, scheduling and
// dispatching events performs zero heap allocations.
func TestZeroAllocSteadyState(t *testing.T) {
	type payload struct {
		kind uint8
		a, b *int
		dur  float64
	}
	var x, y int
	executed := 0
	e := New(func(_ float64, p payload) { executed += int(p.kind) }, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		e.At(rng.Float64()*1000, payload{kind: 1, a: &x, b: &y, dur: 0.5})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(rng.Float64()*10, payload{kind: 1, a: &x, b: &y})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocated %v times per op, want 0", allocs)
	}
	if executed == 0 {
		t.Fatal("no events dispatched")
	}
}

// Property: for any set of event times, execution order is a sorted
// permutation and the clock never runs backwards.
func TestOrderingProperty(t *testing.T) {
	check := func(times []float64) bool {
		e := newClosureEngine()
		var fired []float64
		for _, at := range times {
			at := at
			if at < 0 {
				at = -at
			}
			e.At(at, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(times)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving At calls with Steps preserves global ordering for
// events at distinct times.
func TestInterleavedScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := newClosureEngine()
	var fired []float64
	pending := 0
	for i := 0; i < 5000; i++ {
		if pending == 0 || rng.Intn(2) == 0 {
			at := e.Now() + rng.Float64()*100
			e.At(at, func() { fired = append(fired, e.Now()) })
			pending++
		} else {
			e.Step()
			pending--
		}
	}
	e.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Fatal("interleaved execution violated time order")
	}
}

// TestTieBreakInsertionOrderInvariant is the invariant the parallel sweep
// layer's determinism proof rests on: for ANY interleaving of At calls, the
// global execution order equals a stable sort of the events by timestamp —
// i.e. same-timestamp events fire exactly in insertion order. It runs on a
// typed integer payload, the engine's production shape.
func TestTieBreakInsertionOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type key struct {
		at  float64
		ins int
	}
	var want []key
	var got []key
	e := New(func(now float64, ins int) {
		got = append(got, key{at: now, ins: ins})
	}, 0)
	// Many events crowded onto few distinct timestamps forces heavy
	// tie-breaking inside the heap.
	timestamps := []float64{0, 1, 1, 2, 3, 3, 3, 5, 8}
	for i := 0; i < 3000; i++ {
		at := timestamps[rng.Intn(len(timestamps))]
		want = append(want, key{at: at, ins: i})
		e.At(at, i)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got (t=%v, ins=%d), want (t=%v, ins=%d) — "+
				"same-timestamp events must fire in insertion order",
				i, got[i].at, got[i].ins, want[i].at, want[i].ins)
		}
	}
}

// TestTieBreakSurvivesNestedScheduling checks the invariant when ties are
// created from inside running events (the simulator's normal mode: zero
// network delay hops schedule more work at the current instant).
func TestTieBreakSurvivesNestedScheduling(t *testing.T) {
	e := newClosureEngine()
	var order []int
	e.At(10, func() {
		// Scheduled while t=10 is executing: these tie with the events
		// below that were scheduled before Run, and must fire after them.
		e.At(10, func() { order = append(order, 103) })
		e.At(10, func() { order = append(order, 104) })
	})
	e.At(10, func() { order = append(order, 101) })
	e.At(10, func() { order = append(order, 102) })
	e.Run()
	want := []int{101, 102, 103, 104}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestHeapMatchesReferenceModel drives the hand-rolled heap against a
// stable-sorted reference model over a random interleaving of pushes and
// pops, catching any sift bug that reorders equal-timestamp events. It uses
// the typed payload path directly: the record IS the payload, no closures.
func TestHeapMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type rec struct {
		at  float64
		ins int
	}
	var model []rec
	var fired []rec
	e := New(func(_ float64, r rec) { fired = append(fired, r) }, 0)
	ins := 0
	for i := 0; i < 20000; i++ {
		if e.Pending() == 0 || rng.Intn(3) > 0 {
			at := e.Now() + float64(rng.Intn(8)) // few distinct values → many ties
			r := rec{at: at, ins: ins}
			ins++
			model = append(model, r)
			e.At(at, r)
		} else {
			e.Step()
		}
	}
	e.Run()
	sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
	// The interleaved pops make the global fired order differ from the
	// model, but within any single timestamp the insertion order must hold.
	byTime := make(map[float64][]int)
	for _, r := range fired {
		byTime[r.at] = append(byTime[r.at], r.ins)
	}
	for at, seqs := range byTime {
		if !sort.IntsAreSorted(seqs) {
			t.Fatalf("t=%v: insertion order violated: %v", at, seqs)
		}
	}
	if len(fired) != len(model) {
		t.Fatalf("fired %d events, want %d", len(fired), len(model))
	}
}

// simShapedEvent mirrors internal/sim's event union so the benchmark
// exercises the payload size the production hot path pays for.
type simShapedEvent struct {
	kind    uint8
	central bool
	a, b    *int
	dur     float64
}

func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	var sink int
	var x int
	e := New(func(_ float64, ev simShapedEvent) { sink += int(ev.kind) }, 16384)
	// Keep a rolling window of pending events like a live simulation.
	for i := 0; i < 10000; i++ {
		e.At(rng.Float64()*1000, simShapedEvent{kind: 1, a: &x})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.Float64()*10, simShapedEvent{kind: 1, a: &x})
		e.Step()
	}
}

func TestMaxPendingTracksHighWaterMark(t *testing.T) {
	e := New(func(float64, int) {}, 0)
	if e.MaxPending() != 0 {
		t.Fatalf("fresh engine MaxPending = %d", e.MaxPending())
	}
	for i := 0; i < 5; i++ {
		e.At(float64(i), i)
	}
	if e.MaxPending() != 5 {
		t.Fatalf("MaxPending = %d after 5 pushes, want 5", e.MaxPending())
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	// Draining must not lower the high-water mark…
	if e.MaxPending() != 5 {
		t.Fatalf("MaxPending = %d after draining to 2, want 5", e.MaxPending())
	}
	// …and refilling below it must not raise it.
	e.At(10, 99)
	if e.MaxPending() != 5 {
		t.Fatalf("MaxPending = %d after refill to 3, want 5", e.MaxPending())
	}
	e.At(11, 100)
	e.At(12, 101)
	e.At(13, 102)
	if e.MaxPending() != 6 {
		t.Fatalf("MaxPending = %d after growing past the mark, want 6", e.MaxPending())
	}
}

// Reserved sequence numbers let lazily scheduled events keep the tie-break
// rank of an up-front schedule: a reserved event must fire before any
// normally scheduled event at the same timestamp, even one pushed earlier
// in wall-clock order.
func TestReservedSeqsWinEqualTimestampTies(t *testing.T) {
	var fired []string
	e := New(func(_ float64, s string) { fired = append(fired, s) }, 0)
	e.ReserveSeqs(2)
	e.At(10, "normal-a") // scheduled first, seq 3
	e.At(10, "normal-b") // seq 4
	e.AtReserved(10, 1, "reserved-1")
	e.AtReserved(10, 2, "reserved-2")
	e.Run()
	want := []string{"reserved-1", "reserved-2", "normal-a", "normal-b"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestReserveSeqsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := New(func(float64, int) {}, 0)
	e.At(1, 0)
	mustPanic("ReserveSeqs after scheduling", func() { e.ReserveSeqs(5) })

	e2 := New(func(float64, int) {}, 0)
	e2.ReserveSeqs(3)
	mustPanic("AtReserved seq 0", func() { e2.AtReserved(1, 0, 0) })
	mustPanic("AtReserved beyond range", func() { e2.AtReserved(1, 4, 0) })
	mustPanic("AtReserved without reservation", func() {
		New(func(float64, int) {}, 0).AtReserved(1, 1, 0)
	})

	// Reusing or rewinding a reserved seq would create two events with an
	// identical (timestamp, sequence) rank — unspecified pop order.
	e3 := New(func(float64, int) {}, 0)
	e3.ReserveSeqs(3)
	e3.AtReserved(1, 2, 0)
	mustPanic("AtReserved duplicate seq", func() { e3.AtReserved(1, 2, 0) })
	mustPanic("AtReserved decreasing seq", func() { e3.AtReserved(1, 1, 0) })
}
