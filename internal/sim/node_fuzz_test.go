package sim

import (
	"slices"
	"testing"
)

// FuzzNodeQueueVsSlice drives one node's queue — front, or rest[head:] —
// and a plain []entry FIFO with the same operations, and requires the same
// entries in the same order after each, plus the representation's own
// rules. The node is busy throughout, so enqueue and enqueueFront only
// queue and never reach the simulation. Each op is a byte (its low three
// bits pick the operation) followed by the operand bytes it reads.
func FuzzNodeQueueVsSlice(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 3, 0, 0, 0, 1, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 4, 0, 0, 0, 3, 0x0e, 1, 1, 4, 5, 3, 6, 0})
	f.Add([]byte{5, 4, 0, 0, 3, 1, 2, 2, 3, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := &node{busy: true}
		var model []entry
		next := int32(0)
		newEntry := func(flags byte) entry {
			next++
			return entry{jidx: next, tidx: -1, flags: entryFlags(flags) & (entryTask | entryLong)}
		}
		arg := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		var buf []entry
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			switch op & 7 {
			case 0, 6: // enqueue
				e := newEntry(op >> 3)
				n.enqueue(nil, e)
				model = append(model, e)
			case 1: // the pop advance makes
				if len(model) > 0 {
					if got := n.pop(); got != model[0] {
						t.Fatalf("pop = %+v, want %+v", got, model[0])
					}
					model = model[1:]
				}
			case 2: // steal a range
				if len(model) > 0 {
					start := arg() % len(model)
					end := start + arg()%(len(model)-start+1)
					buf = n.appendStealRange(buf[:0], start, end)
					want := slices.Clone(model[start:end])
					model = slices.Delete(model, start, end)
					if !slices.Equal(buf, want) {
						t.Fatalf("stole %v, want %v", buf, want)
					}
				}
			case 3: // steal the positions a mask picks
				mask := arg()
				var idx []int
				var want []entry
				for i := len(model) - 1; i >= 0; i-- {
					if i < 8 && mask&(1<<i) != 0 {
						idx = append([]int{i}, idx...)
						want = append([]entry{model[i]}, want...)
						model = slices.Delete(model, i, i+1)
					}
				}
				buf = n.appendStealIndices(buf[:0], idx)
				if !slices.Equal(buf, want) {
					t.Fatalf("stole %v at %v, want %v", buf, idx, want)
				}
			case 4: // what failNode leaves
				n.clearQueue()
				model = model[:0]
			case 5: // a stolen group arriving at an empty queue
				if len(model) == 0 {
					group := make([]entry, 1+arg()%4)
					for i := range group {
						group[i] = newEntry(byte(arg()))
					}
					n.enqueueFront(nil, group)
					model = append(model, group...)
				}
			case 7:
				var flags []bool
				flags = n.appendQueueLongFlags(flags)
				if len(flags) != len(model) {
					t.Fatalf("%d long flags for %d entries", len(flags), len(model))
				}
				for i, l := range flags {
					if l != model[i].long() {
						t.Fatalf("long flag %d = %v, want %v", i, l, model[i].long())
					}
				}
			}
			checkNodeQueue(t, n, model)
		}
	})
}

// checkNodeQueue requires n's queue to hold model, and the representation's
// rules: the queue is front alone or rest[head:], never both, and rest is
// rewound whenever it drains.
func checkNodeQueue(t *testing.T, n *node, model []entry) {
	t.Helper()
	if n.queueLen() != len(model) {
		t.Fatalf("queueLen %d, want %d", n.queueLen(), len(model))
	}
	got := n.rest[n.head:]
	if n.hasFront {
		got = []entry{n.front}
	}
	if !slices.Equal(got, model) {
		t.Fatalf("queue %v, want %v", got, model)
	}
	if int(n.head) == len(n.rest) && n.head != 0 {
		t.Fatalf("rest drained at head %d without a rewind", n.head)
	}
	if n.hasFront && len(n.rest) != 0 {
		t.Fatalf("front and %d entries in rest", len(n.rest))
	}
}
