package eventq

import (
	"math"
	"math/rand"
	"testing"
)

// timeDist generates scheduling offsets with a particular shape; the
// differential tests sweep shapes because the ladder's three code paths
// (bucket append, bottom insert, overflow tier) are selected by the
// timestamp distribution, and each must preserve the heap's order.
type timeDist struct {
	name string
	next func(rng *rand.Rand) float64
}

func timeDists() []timeDist {
	return []timeDist{
		{"uniform-wide", func(rng *rand.Rand) float64 { return rng.Float64() * 1000 }},
		{"clustered-ties", func(rng *rand.Rand) float64 { return float64(rng.Intn(8)) }},
		{"exponential", func(rng *rand.Rand) float64 { return rng.ExpFloat64() * 5 }},
		{"bimodal-far-future", func(rng *rand.Rand) float64 {
			if rng.Intn(10) == 0 {
				return 1e6 + rng.Float64()*1e6 // churn-script-like far timers
			}
			return rng.Float64() * 2
		}},
		{"single-instant", func(rng *rand.Rand) float64 { return 42 }},
		{"float-extremes", func(rng *rand.Rand) float64 {
			switch rng.Intn(12) {
			case 0:
				return math.Inf(1)
			case 1:
				return 1e300
			case 2:
				return 1e-300
			default:
				return rng.Float64() * 100
			}
		}},
	}
}

// TestLadderMatchesHeapRandomPrograms drives a heap engine and a ladder
// engine through identical random schedule/pop programs and requires the
// dispatch streams to be identical, event for event — the in-process twin
// of FuzzLadderVsHeap, swept across timestamp shapes.
func TestLadderMatchesHeapRandomPrograms(t *testing.T) {
	type fired struct {
		now float64
		id  int
	}
	for _, dist := range timeDists() {
		t.Run(dist.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var gotH, gotL []fired
				h := New(func(now float64, id int) { gotH = append(gotH, fired{now, id}) }, 0)
				l := New(func(now float64, id int) { gotL = append(gotL, fired{now, id}) }, 0, WithBackend(BackendLadder))
				id := 0
				for op := 0; op < 30000; op++ {
					if h.Pending() == 0 || rng.Intn(5) > 1 {
						d := dist.next(rng)
						h.After(d, id)
						l.After(d, id)
						id++
					} else {
						h.Step()
						l.Step()
					}
					if h.Pending() != l.Pending() {
						t.Fatalf("seed %d op %d: pending diverged: heap %d ladder %d",
							seed, op, h.Pending(), l.Pending())
					}
				}
				h.Run()
				l.Run()
				if len(gotH) != len(gotL) {
					t.Fatalf("seed %d: dispatched %d (heap) vs %d (ladder) events", seed, len(gotH), len(gotL))
				}
				for i := range gotH {
					if gotH[i] != gotL[i] {
						t.Fatalf("seed %d: dispatch %d diverged: heap %+v ladder %+v",
							seed, i, gotH[i], gotL[i])
					}
				}
			}
		})
	}
}

// TestLadderReservedSeqsMatchHeap pins the hardest ordering case: reserved
// low sequence numbers pushed late, landing among equal-timestamp events
// that are already sorted in the ladder's drain buffer. The reserved event
// must still win the tie on both backends.
func TestLadderReservedSeqsMatchHeap(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var gotH, gotL []int
		h := New(func(_ float64, id int) { gotH = append(gotH, id) }, 0)
		l := New(func(_ float64, id int) { gotL = append(gotL, id) }, 0, WithBackend(BackendLadder))
		const nReserved = 50
		h.ReserveSeqs(nReserved)
		l.ReserveSeqs(nReserved)
		id := 0
		nextReserved := uint64(1)
		for op := 0; op < 20000; op++ {
			switch {
			case nextReserved <= nReserved && rng.Intn(100) == 0:
				// Late reserved push at a heavily-tied timestamp.
				at := h.Now() + float64(rng.Intn(4))
				h.AtReserved(at, nextReserved, id)
				l.AtReserved(at, nextReserved, id)
				nextReserved++
				id++
			case h.Pending() == 0 || rng.Intn(3) > 0:
				at := h.Now() + float64(rng.Intn(4))
				h.At(at, id)
				l.At(at, id)
				id++
			default:
				h.Step()
				l.Step()
			}
		}
		h.Run()
		l.Run()
		if len(gotH) != len(gotL) {
			t.Fatalf("seed %d: dispatched %d (heap) vs %d (ladder)", seed, len(gotH), len(gotL))
		}
		for i := range gotH {
			if gotH[i] != gotL[i] {
				t.Fatalf("seed %d: dispatch %d diverged: heap id %d, ladder id %d",
					seed, i, gotH[i], gotL[i])
			}
		}
	}
}

// TestLadderBasicContracts runs the engine's behavioral contracts against
// the ladder backend: time order with FIFO ties, the clock clamping a past
// event, and the capacity hint landing in the overflow tier.
func TestLadderBasicContracts(t *testing.T) {
	t.Run("order-and-ties", func(t *testing.T) {
		var got []int
		e := New(func(_ float64, id int) { got = append(got, id) }, 0, WithBackend(BackendLadder))
		e.At(5, 3)
		e.At(1, 0)
		e.At(5, 4)
		e.At(2, 1)
		e.At(2, 2)
		e.Run()
		for i, id := range got {
			if i != id {
				t.Fatalf("dispatch order %v, want ascending ids", got)
			}
		}
	})
	t.Run("past-clamps", func(t *testing.T) {
		var got []float64
		e := New(func(now float64, _ int) { got = append(got, now) }, 0, WithBackend(BackendLadder))
		e.At(10, 0)
		e.Run()
		e.At(3, 1) // in the past: clamps to now=10
		e.Run()
		if got[1] != 10 {
			t.Fatalf("past event fired at %v, want clamped to 10", got[1])
		}
	})
	t.Run("capacity-hint", func(t *testing.T) {
		e := New(func(_ float64, _ int) {}, 128, WithBackend(BackendLadder))
		if e.Cap() != 128 {
			t.Fatalf("Cap() = %d, want 128", e.Cap())
		}
		for i := 0; i < 128; i++ {
			e.At(float64(i), i)
		}
		if e.Cap() != 128 {
			t.Fatalf("pre-load within the hint grew the overflow tier to %d", e.Cap())
		}
	})
}

// TestLadderSpillAndRewindow forces the structure through its deep paths:
// repeated overflow re-windowing, bucket spills on tight clusters, and the
// degenerate single-instant promote — and checks the order against the
// heap throughout.
func TestLadderSpillAndRewindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var gotH, gotL []int
	h := New(func(_ float64, id int) { gotH = append(gotH, id) }, 0)
	l := New(func(_ float64, id int) { gotL = append(gotL, id) }, 0, WithBackend(BackendLadder))
	id := 0
	push := func(at float64) {
		h.At(at, id)
		l.At(at, id)
		id++
	}
	// Phase 1: a tight cluster (forces spill: >spillThreshold events in
	// one bucket) plus sparse outliers across nine decades.
	for i := 0; i < 2000; i++ {
		push(100 + rng.Float64()*1e-7)
	}
	for i := 0; i < 100; i++ {
		push(rng.Float64() * 1e9)
	}
	// Phase 2: drain halfway, interleaving near-term pushes that land in
	// the sorted drain buffer (and outgrow it, forcing a bottom spawn).
	for i := 0; i < 1000; i++ {
		h.Step()
		l.Step()
		push(h.Now() + rng.Float64()*1e-8)
	}
	// Phase 3: one instant, thousands of events — degenerate span, the
	// whole-tier sort path.
	for i := 0; i < 5000; i++ {
		push(2e9)
	}
	h.Run()
	l.Run()
	if len(gotH) != len(gotL) {
		t.Fatalf("dispatched %d (heap) vs %d (ladder)", len(gotH), len(gotL))
	}
	for i := range gotH {
		if gotH[i] != gotL[i] {
			t.Fatalf("dispatch %d diverged: heap id %d, ladder id %d", i, gotH[i], gotL[i])
		}
	}
	if h.Executed() != l.Executed() || l.Pending() != 0 {
		t.Fatalf("executed %d/%d, pending %d", h.Executed(), l.Executed(), l.Pending())
	}
}

// TestLadderZeroAllocSteadyState is the ladder twin of
// TestZeroAllocSteadyState: once array capacities reach the workload's
// high-water mark, the rolling push/dispatch cycle — including bucket
// promotion, sorting, and re-windowing — must not allocate.
func TestLadderZeroAllocSteadyState(t *testing.T) {
	type payload struct {
		kind uint8
		ref  int32
	}
	rng := rand.New(rand.NewSource(9))
	var executed int
	e := New(func(_ float64, _ payload) { executed++ }, 4096, WithBackend(BackendLadder))
	for i := 0; i < 4096; i++ {
		e.At(rng.Float64()*100, payload{kind: 1})
	}
	// Warm until every tier's backing arrays have seen the rolling
	// window's high-water mark, including several re-window cycles.
	for i := 0; i < 200000; i++ {
		e.After(rng.Float64()*10, payload{kind: 1})
		e.Step()
	}
	const rounds = 50000
	avg := testing.AllocsPerRun(rounds, func() {
		e.After(rng.Float64()*10, payload{kind: 1})
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state push/dispatch allocated %v times per op, want 0", avg)
	}
}
