package eventq

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// newPostEngine is an engine whose payloads are ints and whose post delay is
// d; it returns the engine and the log of what fired.
func newPostEngine(backend Backend, d float64) (*Engine[int], *[]int) {
	fired := new([]int)
	e := New(func(_ float64, ev int) { *fired = append(*fired, ev) }, 0, WithBackend(backend), WithPostDelay(d))
	return e, fired
}

// What shares a queue entry and what does not: a run of posts for one instant
// with nothing scheduled in between. Events, Pending and the dispatch order
// are the same whichever way it falls.
func TestPostCoalescesAdjacentSends(t *testing.T) {
	for _, c := range []struct {
		name    string
		program func(e *Engine[int])
		entries uint64
		order   []int
	}{
		{"a run of posts is one entry", func(e *Engine[int]) {
			e.Post(1)
			e.Post(2)
			e.Post(3)
		}, 1, []int{1, 2, 3}},
		{"an At in between takes a sequence number: two bursts", func(e *Engine[int]) {
			e.Post(1)
			e.At(0.5, 2) // the burst's own instant
			e.Post(3)
		}, 3, []int{1, 2, 3}},
		{"an At for an earlier instant breaks the run just the same", func(e *Engine[int]) {
			e.Post(1)
			e.At(0.1, 2)
			e.Post(3)
		}, 3, []int{2, 1, 3}},
		{"a reserved event takes no sequence number and does not", func(e *Engine[int]) {
			e.Post(1)
			e.AtReserved(0.5, 1, 2)
			e.Post(3)
		}, 2, []int{2, 1, 3}},
		{"the clock moved: another instant, another burst", func(e *Engine[int]) {
			e.Post(1)
			e.At(0.25, 2)
			e.Step()
			e.Post(3)
			e.Post(4)
		}, 3, []int{2, 1, 3, 4}},
	} {
		for _, backend := range []Backend{BackendHeap, BackendLadder} {
			e, fired := newPostEngine(backend, 0.5)
			e.ReserveSeqs(4)
			c.program(e)
			if got := e.Pending() + int(e.Executed()); got != len(c.order) {
				t.Errorf("%s: %d events pending or executed, want %d", c.name, got, len(c.order))
			}
			e.Run()
			if e.Entries() != c.entries {
				t.Errorf("%s: %d queue entries, want %d", c.name, e.Entries(), c.entries)
			}
			if !reflect.DeepEqual(*fired, c.order) {
				t.Errorf("%s: fired %v, want %v", c.name, *fired, c.order)
			}
			if e.Executed() != uint64(len(c.order)) || e.Pending() != 0 {
				t.Errorf("%s: executed %d, pending %d after the run", c.name, e.Executed(), e.Pending())
			}
		}
	}
}

// Pending and MaxPending count events while a burst waits and while it is
// being delivered, and a handler sees the clock at the burst's instant.
func TestPostCountsEventsNotEntries(t *testing.T) {
	var e *Engine[int]
	var seen []int
	e = New(func(now float64, ev int) {
		if now != 0.5 {
			t.Errorf("event %d fired at %v, want 0.5", ev, now)
		}
		seen = append(seen, e.Pending())
	}, 0, WithBackend(BackendLadder), WithPostDelay(0.5))
	for i := 0; i < 4; i++ {
		e.Post(i)
	}
	if e.Pending() != 4 || e.MaxPending() != 4 || e.Entries() != 1 {
		t.Fatalf("4 posts: pending %d, max %d, entries %d; want 4, 4, 1", e.Pending(), e.MaxPending(), e.Entries())
	}
	if !e.Step() || e.Step() {
		t.Fatal("a burst is one Step")
	}
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("handlers saw %v events pending, want %v", seen, want)
	}
	if e.Executed() != 4 {
		t.Fatalf("executed %d, want 4", e.Executed())
	}
}

// A reserved event scheduled for the current instant from inside a burst
// fires before the rest of the burst, as it would between separate entries.
func TestReservedEventCutsBurstInDelivery(t *testing.T) {
	for _, backend := range []Backend{BackendHeap, BackendLadder} {
		var e *Engine[int]
		var fired []int
		e = New(func(now float64, ev int) {
			fired = append(fired, ev)
			if ev == 1 {
				e.AtReserved(now, 1, 100)
			}
		}, 0, WithBackend(backend), WithPostDelay(0.5))
		e.ReserveSeqs(1)
		for i := 0; i < 4; i++ {
			e.Post(i)
		}
		e.Run()
		if want := []int{0, 1, 100, 2, 3}; !reflect.DeepEqual(fired, want) {
			t.Errorf("fired %v, want %v", fired, want)
		}
		if e.Entries() != 3 { // the burst, the reserved event, the re-queued rest
			t.Errorf("%d queue entries, want 3", e.Entries())
		}
	}
}

func TestPostDelayMustBeOrdered(t *testing.T) {
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithPostDelay(%v) did not panic", d)
				}
			}()
			WithPostDelay(d)
		}()
	}
}

// benchBurst is the post lane's rung: a queue holding 16 384 far-off events
// (a cluster's running tasks; each is replaced as it fires, so the depth
// holds) through which bursts of width one-delay messages pass — scheduled
// back to back, then drained. b.N counts events, so ns/op is per event, and
// the same work done with After is the baseline beside it. Width 1 is the
// lane's worst case — every post opens a burst — and the shape of a run whose
// sends never coalesce; 20 is a small job's probes, 2000 a wide one's.
func benchBurst(b *testing.B, width int, post bool) {
	const depth, delay = 16384, 0.0005
	rng := rand.New(rand.NewSource(1))
	var e *Engine[benchEvent]
	e = New(func(_ float64, ev benchEvent) {
		if ev.kind == 0 {
			e.After(rng.Float64()*1000, ev)
		}
	}, depth, WithBackend(BackendLadder), WithPostDelay(delay))
	for i := 0; i < depth; i++ {
		e.At(rng.Float64()*1000, benchEvent{ref: int32(i)})
	}
	cycle := func() {
		for i := 0; i < width; i++ {
			if post {
				e.Post(benchEvent{kind: 1, ref: int32(i)})
			} else {
				e.After(delay, benchEvent{kind: 1, ref: int32(i)})
			}
		}
		for target := e.Executed() + uint64(width); e.Executed() < target; {
			e.Step()
		}
	}
	for warm := 0; warm < 200000; warm += width {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		cycle()
	}
}

var burstWidths = []struct {
	name string
	n    int
}{{"1", 1}, {"20", 20}, {"2000", 2000}}

func BenchmarkEnginePostBurst(b *testing.B) {
	for _, w := range burstWidths {
		b.Run(w.name, func(b *testing.B) { benchBurst(b, w.n, true) })
	}
}

func BenchmarkEngineAfterBurst(b *testing.B) {
	for _, w := range burstWidths {
		b.Run(w.name, func(b *testing.B) { benchBurst(b, w.n, false) })
	}
}
