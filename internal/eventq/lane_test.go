package eventq

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// newPostEngine is an engine whose payloads are ints and whose post delay is
// d; it returns the engine and the log of what fired.
func newPostEngine(backend Backend, d float64) (*Engine[int], *[]int) {
	fired := new([]int)
	e := New(func(_ float64, ev int) { *fired = append(*fired, ev) }, 0, WithBackend(backend), WithPostDelay(d))
	return e, fired
}

// A post fires where After(legs*delay) would and never enters the queue,
// whatever is scheduled around it: Entries counts the At and AtReserved calls
// alone.
func TestPostCoalescesAdjacentSends(t *testing.T) {
	for _, c := range []struct {
		name    string
		program func(e *Engine[int])
		entries uint64
		order   []int
	}{
		{"a run of posts", func(e *Engine[int]) {
			e.Post(1, 1)
			e.Post(1, 2)
			e.Post(1, 3)
		}, 0, []int{1, 2, 3}},
		{"an At in between, for the posts' own instant: sequence number decides", func(e *Engine[int]) {
			e.Post(1, 1)
			e.At(0.5, 2)
			e.Post(1, 3)
		}, 1, []int{1, 2, 3}},
		{"an At for an earlier instant", func(e *Engine[int]) {
			e.Post(1, 1)
			e.At(0.1, 2)
			e.Post(1, 3)
		}, 1, []int{2, 1, 3}},
		{"a reserved event at the posts' instant outranks them all", func(e *Engine[int]) {
			e.Post(1, 1)
			e.AtReserved(0.5, 1, 2)
			e.Post(1, 3)
		}, 1, []int{2, 1, 3}},
		{"the clock moved between posts", func(e *Engine[int]) {
			e.Post(1, 1)
			e.At(0.25, 2)
			e.Step()
			e.Post(1, 3)
			e.Post(1, 4)
		}, 1, []int{2, 1, 3, 4}},
		{"a round trip and a one-leg post made one delay later: sequence number decides", func(e *Engine[int]) {
			e.Post(2, 1)
			e.At(0.5, 2)
			e.Step()
			e.Post(1, 3)
			e.At(1, 4)
		}, 2, []int{2, 1, 3, 4}},
		{"a round trip posted first fires after a one-leg post", func(e *Engine[int]) {
			e.Post(2, 1)
			e.Post(1, 2)
		}, 0, []int{2, 1}},
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

// Pending and MaxPending count posted events although the queue holds none
// of them, a Step is one event, and a handler sees the clock at its instant.
func TestPostCountsEventsNotEntries(t *testing.T) {
	var e *Engine[int]
	var seen []int
	e = New(func(now float64, ev int) {
		if want := 0.5 * float64(1+ev%2); now != want {
			t.Errorf("event %d fired at %v, want %v", ev, now, want)
		}
		seen = append(seen, e.Pending())
	}, 0, WithBackend(BackendLadder), WithPostDelay(0.5))
	for i := 0; i < 4; i++ {
		e.Post(1+i%2, i)
	}
	if e.Pending() != 4 || e.MaxPending() != 4 || e.Entries() != 0 {
		t.Fatalf("4 posts: pending %d, max %d, entries %d; want 4, 4, 0", e.Pending(), e.MaxPending(), e.Entries())
	}
	for i := 1; i <= 4; i++ {
		if !e.Step() || e.Executed() != uint64(i) {
			t.Fatalf("Step %d: executed %d", i, e.Executed())
		}
	}
	if e.Step() {
		t.Fatal("Step on a drained engine")
	}
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("handlers saw %v events pending, want %v", seen, want)
	}
}

// A reserved event scheduled for the current instant by the handler of a
// posted event fires before the posts still waiting for that instant.
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
			e.Post(1, i)
		}
		e.Run()
		if want := []int{0, 1, 100, 2, 3}; !reflect.DeepEqual(fired, want) {
			t.Errorf("fired %v, want %v", fired, want)
		}
		if e.Entries() != 1 { // the reserved event
			t.Errorf("%d queue entries, want 1", e.Entries())
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

func TestPostLegsMustHaveALane(t *testing.T) {
	for _, legs := range []int{-1, 0, maxLegs + 1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, strconv.Itoa(legs)+" legs") {
					t.Errorf("Post(%d, …) panicked with %q, want a message naming the value", legs, msg)
				}
			}()
			e, _ := newPostEngine(BackendHeap, 0.5)
			e.Post(legs, 0)
		}()
	}
}

// benchBurst is the post lanes' rung: a queue holding 16 384 far-off events
// (a cluster's running tasks; each is replaced as it fires, so the depth
// holds) past which bursts of width one-delay messages go — posted back to
// back, then drained. b.N counts events, so ns/op is per event, and the same
// work done with After, through the queue, is the baseline beside it. Width 1
// is a run whose sends come one at a time, 20 a small job's probes, 2000 a
// wide one's; a lane costs the same at each.
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
				e.Post(1, benchEvent{kind: 1, ref: int32(i)})
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
