package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// Differential test of CentralQueue against the pointer-based
// implementation it replaced (centralqueue_oracle_test.go). A byte string
// decodes to an operation stream over three queues — the truth and two
// mirrors, as a multi-scheduler run has them — applied to both
// implementations in lock step; every value either one returns must match
// bit for bit, and after every operation the slot arrays must be valid
// heaps with a consistent position index.

// The opcodes of the byte encoding (opcode byte % cqOps). Each operation
// reads its operands from the bytes that follow; a stream that runs out of
// bytes reads zeros.
const (
	cqAssign   = iota // queue, estimate
	cqAddLoad         // queue, node, estimate
	cqStarted         // queue, node, estimate, run duration
	cqFinished        // queue, node
	cqRemove          // queue, node
	cqAdd             // queue, node (may lie beyond the id space: growth)
	cqSync            // mirror: SyncFrom truth -> mirror
	cqMin             // queue: MinWaiting
	cqWaiting         // queue, node
	cqClock           // delta: move the caller's clock, backwards if bit 7
	cqOps
)

// cqPair is one queue under test next to its oracle twin.
type cqPair struct {
	q *CentralQueue
	o *oracleQueue
}

// cqStream hands out the operands of an encoded operation stream.
type cqStream struct {
	b []byte
	i int
}

func (s *cqStream) more() bool { return s.i < len(s.b) }

func (s *cqStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

// Estimates, run durations and clock steps are small multiples of 1/4, so
// equal waiting times (ties broken by node id) and zero-length tasks are
// common, and sums stay exact in float64.
func (s *cqStream) dur() float64 { return float64(s.next()%8) * 0.25 }

// runCentralQueueOps replays one encoded stream and fails on the first
// divergence between CentralQueue and the oracle.
func runCentralQueueOps(t *testing.T, data []byte) {
	t.Helper()
	s := &cqStream{b: data}
	// Header: server count, and whether ids are dense or every other one
	// (so untracked holes exist inside the id space from the start).
	n := 1 + int(s.next()%24)
	stride := 1 + int(s.next()%2)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * stride
	}
	span := n*stride + 4 // node operands reach a little past the id space
	pairs := [3]cqPair{{NewCentralQueue(ids), newOracleQueue(ids)}}
	for k := 1; k < len(pairs); k++ {
		// Mirrors are made the way the engines make them.
		pairs[k] = cqPair{NewCentralQueue(nil), newOracleQueue(nil)}
		pairs[k].q.SyncFrom(pairs[0].q)
		pairs[k].o.SyncFrom(pairs[0].o)
	}
	now := 0.0
	same := func(step int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("op %d %s: got %v (%#x), oracle %v (%#x)", step, what,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for step := 0; s.more(); step++ {
		op := s.next() % cqOps
		if op == cqClock {
			d := s.next()
			if delta := float64(d%16) * 0.125; d&0x80 != 0 {
				now -= delta
			} else {
				now += delta
			}
			continue
		}
		p := pairs[s.next()%3]
		switch op {
		case cqAssign:
			est := s.dur()
			if p.o.Len() == 0 {
				break // both panic on an empty queue; Len is compared below
			}
			gotID, gotW := p.q.Assign(now, est)
			wantID, wantW := p.o.Assign(now, est)
			if gotID != wantID {
				t.Fatalf("op %d Assign: node %d, oracle %d", step, gotID, wantID)
			}
			same(step, "Assign waiting", gotW, wantW)
		case cqAddLoad:
			node, est := int(s.next())%span, s.dur()
			p.q.AddLoad(node, now, est)
			p.o.AddLoad(node, now, est)
		case cqStarted:
			node, est, run := int(s.next())%span, s.dur(), s.dur()
			p.q.TaskStarted(node, now, est, run)
			p.o.TaskStarted(node, now, est, run)
		case cqFinished:
			node := int(s.next()) % span
			p.q.TaskFinished(node, now)
			p.o.TaskFinished(node, now)
		case cqRemove:
			node := int(s.next()) % span
			if got, want := p.q.Remove(node), p.o.Remove(node); got != want {
				t.Fatalf("op %d Remove(%d): %v, oracle %v", step, node, got, want)
			}
		case cqAdd:
			node := int(s.next()) % span
			if got, want := p.q.Add(node, now), p.o.Add(node, now); got != want {
				t.Fatalf("op %d Add(%d): %v, oracle %v", step, node, got, want)
			}
		case cqSync:
			if p != pairs[0] {
				p.q.SyncFrom(pairs[0].q)
				p.o.SyncFrom(pairs[0].o)
			}
		case cqMin:
			same(step, "MinWaiting", p.q.MinWaiting(now), p.o.MinWaiting(now))
		case cqWaiting:
			node := int(s.next()) % span
			same(step, "Waiting", p.q.Waiting(node, now), p.o.Waiting(node, now))
		}
		if got, want := p.q.Len(), p.o.Len(); got != want {
			t.Fatalf("op %d (opcode %d): Len %d, oracle %d", step, op, got, want)
		}
		checkCentralQueue(t, p.q)
	}
	// Every server's final state, observed and buried alike.
	for k, p := range pairs {
		for node := 0; node < span+1; node++ {
			same(k, "final Waiting", p.q.Waiting(node, now), p.o.Waiting(node, now))
		}
		got, want := p.q.Waitings(now), p.o.Waitings(now)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("queue %d final Waitings: %v, oracle %v", k, got, want)
		}
	}
}

// checkCentralQueue verifies the representation: both slot arrays are
// heaps under slot.less, every slot's key is its server's current key, and
// pos/inRun lead from each tracked server back to its own slot.
func checkCentralQueue(t *testing.T, q *CentralQueue) {
	t.Helper()
	for _, h := range []struct {
		heap  serverHeap
		inRun bool
	}{{q.running, true}, {q.idle, false}} {
		for i, sl := range h.heap {
			s := q.servers[sl.node]
			if int(s.pos) != i || s.inRun != h.inRun {
				t.Fatalf("slot %d (inRun=%v) holds node %d, whose record says pos=%d inRun=%v",
					i, h.inRun, sl.node, s.pos, s.inRun)
			}
			if math.Float64bits(sl.key) != math.Float64bits(s.key()) {
				t.Fatalf("node %d: slot key %v, server key %v", sl.node, sl.key, s.key())
			}
			if i > 0 && sl.less(h.heap[(i-1)/2]) {
				t.Fatalf("heap order broken at slot %d (inRun=%v)", i, h.inRun)
			}
		}
	}
	tracked := 0
	for _, s := range q.servers {
		if s.pos >= 0 {
			tracked++
		}
	}
	if tracked != q.count || tracked != len(q.running)+len(q.idle) {
		t.Fatalf("count %d, tracked records %d, slots %d+%d",
			q.count, tracked, len(q.running), len(q.idle))
	}
}

// cqSeeds are the hand-written streams: the table test replays them and
// the fuzz target starts from them.
var cqSeeds = map[string][]byte{
	"empty": {},
	// Four dense servers given equal load at one instant: every Assign is
	// a four-way tie on waiting time, so node order decides.
	"ties by node id": {3, 0,
		cqAssign, 0, 4, cqAssign, 0, 4, cqAssign, 0, 4, cqAssign, 0, 4,
		cqAssign, 0, 4, cqAssign, 0, 4, cqAssign, 0, 4, cqAssign, 0, 4,
		cqMin, 0, cqAssign, 0, 0},
	// Node 0 starts a short task under a deep backlog (large key, so it
	// sinks in the running heap) while nodes 1-2 run long ones; the clock
	// then passes node 0's runEnd with node 0 still buried, and the
	// queries that follow must see its true waiting time.
	"expired while buried": {2, 0,
		cqAddLoad, 0, 0, 7, cqAddLoad, 0, 0, 7, cqAddLoad, 0, 0, 7,
		cqStarted, 0, 0, 1, 1, cqStarted, 0, 1, 0, 7, cqStarted, 0, 2, 0, 6,
		cqClock, 4, cqWaiting, 0, 0, cqMin, 0, cqAssign, 0, 2,
		cqClock, 15, cqClock, 15, cqAssign, 0, 1, cqWaiting, 0, 0, cqFinished, 0, 0},
	// A mirror diverges from the truth between syncs, the id space grows
	// on the truth, and the next sync has to carry all of it over.
	"mirror drift and growth": {5, 1,
		cqAssign, 1, 3, cqAssign, 1, 3, cqAssign, 0, 5, cqStarted, 0, 0, 5, 5,
		cqRemove, 0, 2, cqAdd, 0, 13, cqAdd, 0, 3, cqClock, 4,
		cqAssign, 2, 1, cqSync, 1, cqSync, 2, cqAssign, 1, 2, cqAssign, 2, 2,
		cqRemove, 1, 4, cqSync, 1, cqWaiting, 1, 4, cqMin, 1},
	// The clock runs backwards between calls; the queue's own clock does
	// not, and both implementations must clamp alike.
	"non-monotone now": {4, 0,
		cqClock, 12, cqAssign, 0, 3, cqStarted, 0, 0, 3, 2, cqClock, 0x88,
		cqAssign, 0, 3, cqFinished, 0, 0, cqClock, 0x8f, cqMin, 0, cqWaiting, 0, 0},
	// §4.10's regime. The truth starts tasks on nodes 0-3 and both mirrors
	// copy it; the clock then passes all four ends while mirror 1 hears
	// only node 4 start and finish, twice, and is asked nothing. The truth
	// finishes and restarts nodes 0-1 (node 1 with a task that expires as
	// well) and never hears from 2-3, so the sync that follows hands mirror
	// 1 three expired servers beside one still running, and mirror 2 —
	// never re-synced — still holds the first four. Then both are asked.
	"stale mirror hears only its own tasks": {5, 0,
		cqAssign, 0, 2, cqAssign, 0, 3, cqAssign, 0, 4, cqAssign, 0, 5,
		cqStarted, 0, 0, 2, 2, cqStarted, 0, 1, 3, 3, cqStarted, 0, 2, 4, 4, cqStarted, 0, 3, 5, 5,
		cqSync, 1, cqSync, 2,
		cqClock, 5, cqStarted, 1, 4, 0, 1, cqFinished, 0, 0,
		cqClock, 3, cqFinished, 1, 4, cqFinished, 0, 1, cqStarted, 0, 0, 0, 7,
		cqClock, 4, cqStarted, 1, 4, 0, 2, cqAddLoad, 1, 4, 3, cqStarted, 0, 1, 0, 1,
		cqClock, 6, cqFinished, 1, 4, cqWaiting, 1, 2, cqWaiting, 2, 0,
		cqSync, 1, cqAssign, 1, 2, cqAssign, 2, 2, cqMin, 1, cqMin, 2,
		cqAssign, 1, 1, cqAssign, 2, 1, cqAssign, 1, 1, cqAssign, 2, 1, cqAssign, 2, 1},
	// The truth is never asked for a root: it is loaded and started by node
	// id, the clock passes three of its five ends while AddLoad and a
	// restart touch other servers, and a mirror copies it as it stands —
	// expired roots included — and assigns at the same instant.
	"sync from an unsettled truth": {4, 0,
		cqAddLoad, 0, 0, 3, cqAddLoad, 0, 1, 3, cqAddLoad, 0, 2, 2, cqAddLoad, 0, 3, 1, cqAddLoad, 0, 4, 1,
		cqStarted, 0, 0, 1, 2, cqStarted, 0, 1, 1, 3, cqStarted, 0, 2, 1, 4, cqStarted, 0, 3, 1, 7, cqStarted, 0, 4, 1, 7,
		cqClock, 9, cqAddLoad, 0, 3, 2, cqFinished, 0, 4, cqStarted, 0, 4, 0, 6, cqAddLoad, 0, 0, 1,
		cqSync, 1, cqAssign, 1, 1, cqAssign, 1, 1, cqAssign, 1, 1, cqMin, 1,
		cqClock, 2, cqSync, 2, cqMin, 2, cqAssign, 2, 3, cqMin, 0, cqAssign, 0, 1},
}

func TestCentralQueueVsOracle(t *testing.T) {
	for name, data := range cqSeeds {
		t.Run(name, func(t *testing.T) { runCentralQueueOps(t, data) })
	}
	// Long pseudo-random streams: every opcode, all three queues, clusters
	// of 1-24 servers with and without holes in the id space.
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		runCentralQueueOps(t, data)
	}
}

func FuzzCentralQueueVsOracle(f *testing.F) {
	for _, data := range cqSeeds {
		f.Add(data)
	}
	rng := rand.New(rand.NewSource(14))
	for range 8 {
		data := make([]byte, 512)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(runCentralQueueOps)
}

// TestCentralQueueLayout pins the size and pointer-freeness of slot and
// server, the way internal/sim's TestHotStructSizes pins simEvent and
// entry: SyncFrom copies one server record and one slot per tracked node on
// every snapshot refresh, every sift step moves a slot, and the arrays stay
// opaque to the garbage collector only while both hold no pointer.
func TestCentralQueueLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 16 {
		t.Errorf("sizeof(slot) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(server{}); got != 24 {
		t.Errorf("sizeof(server) = %d, want 24", got)
	}
	for _, v := range []any{slot{}, server{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v carries a pointer; it must stay pointer-free", typ)
		}
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
