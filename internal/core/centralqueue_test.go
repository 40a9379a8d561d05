package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCentralQueueAssignsIdleFirst(t *testing.T) {
	q := NewCentralQueue([]int{1, 2, 3})
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		id, wait := q.Assign(0, 100)
		if wait != 0 {
			t.Fatalf("idle server should have zero waiting, got %v", wait)
		}
		if seen[id] {
			t.Fatalf("server %d assigned twice before others", id)
		}
		seen[id] = true
	}
	// Fourth assignment stacks on some server with waiting 100.
	_, wait := q.Assign(0, 100)
	if wait != 100 {
		t.Fatalf("stacked assignment waiting = %v, want 100", wait)
	}
}

func TestCentralQueueWaitingAccumulates(t *testing.T) {
	q := NewCentralQueue([]int{1})
	for i := 0; i < 5; i++ {
		_, wait := q.Assign(0, 10)
		if want := float64(i * 10); wait != want {
			t.Fatalf("assignment %d waiting = %v, want %v", i, wait, want)
		}
	}
}

func TestCentralQueueTimeDecay(t *testing.T) {
	q := NewCentralQueue([]int{1})
	q.Assign(0, 100) // queued work: 100
	q.TaskStarted(1, 0, 100, 100)
	// At t=40, 60 seconds of the running task remain.
	if w := q.MinWaiting(40); math.Abs(w-60) > 1e-9 {
		t.Fatalf("waiting at t=40 = %v, want 60", w)
	}
	// Past the estimated end, waiting clamps at zero.
	if w := q.MinWaiting(150); w != 0 {
		t.Fatalf("waiting at t=150 = %v, want 0", w)
	}
}

func TestCentralQueueFeedbackReanchors(t *testing.T) {
	q := NewCentralQueue([]int{1, 2})
	// Both get one task of estimate 100.
	q.Assign(0, 100)
	q.Assign(0, 100)
	q.TaskStarted(1, 0, 100, 100)
	q.TaskStarted(2, 0, 100, 100)
	// Server 1 finishes early at t=10: its waiting drops to zero while
	// server 2 still has ~90 remaining, so the next task goes to 1.
	q.TaskFinished(1, 10)
	id, wait := q.Assign(10, 50)
	if id != 1 {
		t.Fatalf("assignment went to %d, want the early-finisher 1", id)
	}
	if wait != 0 {
		t.Fatalf("waiting = %v, want 0", wait)
	}
}

func TestCentralQueueLateFinishKeepsWaiting(t *testing.T) {
	q := NewCentralQueue([]int{1, 2})
	q.Assign(0, 100)
	q.TaskStarted(1, 0, 100, 100)
	// At t=150 the task on 1 still runs (estimate was wrong). Server 1's
	// running term is exhausted; waiting is 0 — the scheduler believed
	// the estimate. Assign goes to server 2 only if it has less waiting;
	// both are zero, so tie-break by id picks 1. Start feedback matters:
	// after server 1 reports a *new* start, its waiting rises again.
	q.TaskStarted(1, 150, 100, 100)
	id, _ := q.Assign(150, 10)
	if id != 2 {
		t.Fatalf("assignment went to %d, want idle server 2", id)
	}
}

// TestCentralQueueSettlesOnObservation pins where expired roots migrate:
// in front of best() (MinWaiting, Assign) and nowhere else. Nodes 0-2 run
// tasks whose estimates have passed at t=10, node 3 runs to t=100; calls
// that touch node 3, or only read, leave the other three where they sit —
// expired, in the running heap — and still report their true waiting.
func TestCentralQueueSettlesOnObservation(t *testing.T) {
	const now = 10.0
	staged := func() *CentralQueue {
		q := NewCentralQueue([]int{0, 1, 2, 3})
		for id, run := range []float64{1, 2, 3, 100} {
			q.AddLoad(id, 0, 5)
			q.AddLoad(id, 0, 5)
			q.TaskStarted(id, 0, 5, run)
		}
		return q
	}
	unsettled := func(q *CentralQueue, after string) {
		t.Helper()
		for id := range 3 {
			if s := q.servers[id]; s.at != atRunning || s.runEnd > now {
				t.Fatalf("after %s: node %d at=%d runEnd=%v, want it left expired in the running heap", after, id, s.at, s.runEnd)
			}
			if w := q.Waiting(id, now); w != 5 {
				t.Fatalf("after %s: Waiting(%d) = %v, want its queued 5", after, id, w)
			}
		}
	}
	for _, observe := range []struct {
		name string
		call func(q *CentralQueue) float64
	}{
		{"MinWaiting", func(q *CentralQueue) float64 { return q.MinWaiting(now) }},
		{"Assign", func(q *CentralQueue) float64 {
			id, w := q.Assign(now, 1)
			if id != 0 {
				t.Fatalf("Assign chose node %d, want 0 (three-way tie at 5)", id)
			}
			return w
		}},
	} {
		q := staged()
		q.AddLoad(3, now, 1)
		unsettled(q, "AddLoad")
		q.TaskFinished(3, now)
		unsettled(q, "TaskFinished")
		q.TaskStarted(3, now, 5, 50)
		unsettled(q, "TaskStarted")
		if got := q.Waitings(now); len(got) != 4 {
			t.Fatalf("Waitings: %v", got)
		}
		unsettled(q, "Waitings")
		if len(q.running) != 4 || len(q.idle) != 0 {
			t.Fatalf("before %s: %d running, %d idle, want 4 and 0", observe.name, len(q.running), len(q.idle))
		}
		if w := observe.call(q); w != 5 {
			t.Fatalf("%s = %v, want 5", observe.name, w)
		}
		if len(q.running) != 1 || len(q.idle) != 3 || int(q.running[0].node) != 3 {
			t.Fatalf("after %s: %d running, %d idle, want node 3 alone in the running heap", observe.name, len(q.running), len(q.idle))
		}
	}
}

func TestCentralQueueNilSafety(t *testing.T) {
	var q *CentralQueue
	q.TaskStarted(1, 0, 10, 10) // must not panic
	q.TaskFinished(1, 0)
}

func TestCentralQueueUntrackedNode(t *testing.T) {
	q := NewCentralQueue([]int{1})
	q.TaskStarted(99, 0, 10, 10) // unknown node: ignored
	q.TaskFinished(99, 0)
	if w := q.Waiting(99, 0); w != -1 {
		t.Fatalf("Waiting(unknown) = %v, want -1", w)
	}
}

func TestCentralQueueEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Assign on empty queue should panic")
		}
	}()
	NewCentralQueue(nil).Assign(0, 1)
}

// Property: Assign always returns the minimum waiting time across servers
// (checked against a brute-force scan via Waitings).
func TestCentralQueueMinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := make([]int, 50)
	for i := range ids {
		ids[i] = i
	}
	q := NewCentralQueue(ids)
	now := 0.0
	running := map[int]float64{} // node -> est of running task
	queued := map[int][]float64{}
	for step := 0; step < 3000; step++ {
		now += rng.Float64() * 5
		switch rng.Intn(3) {
		case 0: // assign
			est := rng.Float64()*100 + 1
			all := q.Waitings(now)
			min := math.Inf(1)
			for _, w := range all {
				min = math.Min(min, w)
			}
			id, wait := q.Assign(now, est)
			if math.Abs(wait-min) > 1e-6 {
				t.Fatalf("step %d: Assign waiting %v != min %v", step, wait, min)
			}
			queued[id] = append(queued[id], est)
		case 1: // start a queued task somewhere
			for id, list := range queued {
				if len(list) > 0 && running[id] == 0 {
					est := list[0]
					queued[id] = list[1:]
					q.TaskStarted(id, now, est, est)
					running[id] = est
					break
				}
			}
		case 2: // finish a running task
			for id, est := range running {
				if est > 0 {
					q.TaskFinished(id, now)
					delete(running, id)
					break
				}
			}
		}
		// Waiting times must never be negative.
		for _, w := range q.Waitings(now) {
			if w < 0 {
				t.Fatalf("negative waiting %v", w)
			}
		}
	}
}

func TestCentralQueueDeterministicTieBreak(t *testing.T) {
	q1 := NewCentralQueue([]int{3, 1, 2})
	q2 := NewCentralQueue([]int{3, 1, 2})
	for i := 0; i < 10; i++ {
		a, _ := q1.Assign(0, 10)
		b, _ := q2.Assign(0, 10)
		if a != b {
			t.Fatal("equal queues diverged")
		}
	}
}

// Property-based workout of the heap invariant under arbitrary operation
// sequences encoded as byte strings.
func TestCentralQueueFuzzOps(t *testing.T) {
	check := func(ops []byte) bool {
		q := NewCentralQueue([]int{0, 1, 2, 3, 4})
		now := 0.0
		for _, op := range ops {
			now += float64(op%7) * 0.5
			switch op % 3 {
			case 0:
				q.Assign(now, float64(op%11)+1)
			case 1:
				q.TaskStarted(int(op%5), now, float64(op%13)+1, float64(op%13)+1)
			case 2:
				q.TaskFinished(int(op%5), now)
			}
		}
		for _, w := range q.Waitings(now) {
			if w < 0 || math.IsNaN(w) {
				return false
			}
		}
		return q.Len() == 5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRewindsSettledServer pins settle's log entry. At the
// snapshot (t=0) node 0 runs until t=2 and node 1 has 0.5 queued; the
// source's MinWaiting(3) then migrates node 0, unchanged, from the running
// heap to the zero set. A mirror reading at t=1 must see node 0 still
// running (waiting 1) and answer node 1's 0.5: had settle not logged node
// 0, the mirror's copy would hold it in the zero set and answer 1.
func TestSnapshotRewindsSettledServer(t *testing.T) {
	q := NewCentralQueue([]int{0, 1})
	q.TaskStarted(0, 0, 0, 2)
	q.AddLoad(1, 0, 0.5)
	mirror := NewCentralQueue(nil)
	mirror.Snapshot(q)
	if w := q.MinWaiting(3); w != 0 {
		t.Fatalf("source MinWaiting(3) = %v, want 0", w)
	}
	if w := mirror.MinWaiting(1); w != 0.5 {
		t.Fatalf("mirror MinWaiting(1) = %v, want 0.5", w)
	}
	if id, w := mirror.Assign(1, 1); id != 1 || w != 0.5 {
		t.Fatalf("mirror Assign(1) = node %d waiting %v, want node 1 waiting 0.5", id, w)
	}
}

// TestSnapshotUnreadCopiesNothing: a snapshot the next one replaces before
// any read copies no array and replays none of the calls it held, and the
// source keeps a log only while a reader is unread.
func TestSnapshotUnreadCopiesNothing(t *testing.T) {
	q := NewCentralQueue([]int{0, 1, 2})
	mirror := NewCentralQueue(nil)
	mirror.Snapshot(q)
	id, _ := q.Assign(0, 4)
	q.TaskStarted(id, 0, 4, 4)
	mirror.TaskStarted(2, 0, 1, 1)
	mirror.TaskFinished(2, 1)
	if len(q.log) != 2 || len(mirror.ops) != 2 {
		t.Fatalf("%d log entries and %d held calls, want 2 and 2", len(q.log), len(mirror.ops))
	}
	mirror.Snapshot(q)
	if len(mirror.servers) != 0 || len(mirror.ops) != 0 || len(q.log) != 0 || mirror.Len() != 3 {
		t.Fatalf("after the second snapshot: %d records copied, %d calls held, %d log entries, Len %d",
			len(mirror.servers), len(mirror.ops), len(q.log), mirror.Len())
	}
	if w := mirror.Waiting(id, 1); w != 3 {
		t.Fatalf("mirror Waiting(%d, 1) = %v, want 3", id, w)
	}
	if len(q.readers) != 0 || len(q.log) != 0 {
		t.Fatalf("after the read: %d readers, %d log entries, want none", len(q.readers), len(q.log))
	}
}

// TestSnapshotLogCap: a mirror nobody reads (a failed scheduler's) pins at
// most logCap entries of its source's log. The source materializes it when
// the log would pass the cap, and its answers are still those of a copy
// taken eagerly at the snapshot.
func TestSnapshotLogCap(t *testing.T) {
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i
	}
	q := NewCentralQueue(ids)
	now := 0.0
	for range 50 {
		id, _ := q.Assign(now, 10)
		q.TaskStarted(id, now, 10, 10)
	}
	lazy, eager := NewCentralQueue(nil), NewCentralQueue(nil)
	lazy.Snapshot(q)
	eager.SyncFrom(q)
	lazy.TaskFinished(3, 1)
	eager.TaskFinished(3, 1)
	for range 200 {
		now += 0.5
		id, _ := q.Assign(now, 3)
		q.TaskStarted(id, now, 3, 3)
		if len(q.log) > q.logCap() {
			t.Fatalf("log holds %d entries, cap %d", len(q.log), q.logCap())
		}
	}
	if lazy.src != nil || len(q.readers) != 0 || len(q.log) != 0 {
		t.Fatalf("unread mirror not materialized by the cap: src set %v, %d readers, %d log entries",
			lazy.src != nil, len(q.readers), len(q.log))
	}
	checkCentralQueue(t, lazy)
	for node := range ids {
		if got, want := lazy.Waiting(node, 2), eager.Waiting(node, 2); got != want {
			t.Fatalf("Waiting(%d) = %v, eager copy %v", node, got, want)
		}
	}
	for range 20 {
		gotID, gotW := lazy.Assign(2, 1)
		wantID, wantW := eager.Assign(2, 1)
		if gotID != wantID || gotW != wantW {
			t.Fatalf("Assign: node %d waiting %v, eager copy node %d waiting %v", gotID, gotW, wantID, wantW)
		}
	}
}
