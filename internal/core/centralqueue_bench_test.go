package core

import (
	"math/rand"
	"testing"
	"time"
)

// The central queue's rung of the measurement ladder: each call of the
// steady-state cycle and the snapshot copy, timed on their own at the
// cluster sizes the experiments use (a test cluster, the paper's 15 k
// headline, Figure 6's 170 k). Whole runs on top of this layer are
// bench/hawkbench's multisched_stale workload, and its core.cq_* metrics time
// the same cycle from outside.

var cqBenchSizes = []struct {
	name string
	n    int
}{{"1k", 1000}, {"15k", 15000}, {"170k", 170000}}

const (
	cqBenchBusy  = 0.9 // share of servers with a running task
	cqBenchBatch = 256 // calls per timed phase
)

// cqCycler drives a queue through its steady state: the earliest running
// tasks finish, each is replaced by a task assigned to the least-waiting
// server, which starts it. Task estimates are exponential (mean 1000 s), so
// heap keys are spread the way a trace spreads them.
type cqCycler struct {
	q   *CentralQueue
	rng *rand.Rand
	now float64
	// running orders the in-flight tasks by completion instant (slot.key).
	// It borrows the package's own typed heap so the bookkeeping allocates
	// nothing and allocs/op reads the queue's; pos is the position index
	// serverHeap insists on maintaining, which nothing here reads.
	running serverHeap
	pos     []server
	ends    []slot
	ests    []float64
	nodes   []int
	// reader, when set, is snapshotted before each timed phase and never
	// read, so the queue logs every change it makes in the phase.
	reader *CentralQueue
}

func newCQCycler(n int) *cqCycler {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	busy := int(cqBenchBusy * float64(n))
	batch := min(cqBenchBatch, n-busy)
	c := &cqCycler{
		q: NewCentralQueue(ids), rng: rand.New(rand.NewSource(1)),
		running: make(serverHeap, 0, busy), pos: make([]server, n),
		ends: make([]slot, batch), ests: make([]float64, batch), nodes: make([]int, batch),
	}
	for len(c.running) < busy {
		est := c.rng.ExpFloat64() * 1000
		id, _ := c.q.Assign(0, est)
		c.q.TaskStarted(id, 0, est, est)
		c.running.push(c.pos, slot{key: est, node: int32(id)})
	}
	for range 2 * busy / batch { // turn the population over twice
		c.cycle()
	}
	return c
}

// cycle finishes one batch of tasks and places their replacements,
// returning the time spent inside each of the three calls. The bookkeeping
// that picks what finishes next runs outside the timed phases.
func (c *cqCycler) cycle() (finished, assign, started time.Duration) {
	for i := range c.ends {
		c.ends[i] = c.running[0]
		c.running.remove(c.pos, 0)
		c.ests[i] = c.rng.ExpFloat64() * 1000
	}
	c.pin()
	t0 := time.Now()
	for _, t := range c.ends {
		c.now = t.key
		c.q.TaskFinished(int(t.node), c.now)
	}
	finished = time.Since(t0)
	c.pin()
	t0 = time.Now()
	for i, est := range c.ests {
		c.nodes[i], _ = c.q.Assign(c.now, est)
	}
	assign = time.Since(t0)
	c.pin()
	t0 = time.Now()
	for i, est := range c.ests {
		c.q.TaskStarted(c.nodes[i], c.now, est, est)
	}
	started = time.Since(t0)
	for i, est := range c.ests {
		c.running.push(c.pos, slot{key: c.now + est, node: int32(c.nodes[i])})
	}
	return finished, assign, started
}

// pin re-takes the unread reader's snapshot, if there is a reader, which
// empties the log: a phase logs one change per call, at most 256, inside
// logCap at every size, so no phase materializes the reader.
func (c *cqCycler) pin() {
	if c.reader != nil {
		c.reader.Snapshot(c.q)
	}
}

// benchCQ reports ns/op at each cluster size for the driver mk builds: step
// runs one round and returns the time spent inside the calls under
// measurement and how many there were.
func benchCQ(b *testing.B, mk func(n int) (step func() (time.Duration, int))) {
	for _, size := range cqBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			step := mk(size.n)
			var spent time.Duration
			ops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for ops < b.N {
				d, calls := step()
				spent += d
				ops += calls
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(ops), "ns/op")
		})
	}
}

// benchCQPhase reports ns/op for the phases of the cycle that pick selects,
// one op being one call (Cycle: one finish + assign + start).
func benchCQPhase(b *testing.B, pick func(finished, assign, started time.Duration) time.Duration) {
	benchCQ(b, func(n int) func() (time.Duration, int) {
		c := newCQCycler(n)
		return func() (time.Duration, int) { return pick(c.cycle()), len(c.ends) }
	})
}

func BenchmarkCentralQueueAssign(b *testing.B) {
	benchCQPhase(b, func(_, assign, _ time.Duration) time.Duration { return assign })
}

func BenchmarkCentralQueueStarted(b *testing.B) {
	benchCQPhase(b, func(_, _, started time.Duration) time.Duration { return started })
}

func BenchmarkCentralQueueFinished(b *testing.B) {
	benchCQPhase(b, func(finished, _, _ time.Duration) time.Duration { return finished })
}

func BenchmarkCentralQueueCycle(b *testing.B) {
	benchCQPhase(b, func(f, a, s time.Duration) time.Duration { return f + a + s })
}

// benchCQLogged is benchCQPhase on a source an unread snapshot follows, as
// the truth of a multi-scheduler run is between two refreshes: every call
// logs the record it changes. The difference from the plain rung is the
// price of a log entry.
func benchCQLogged(b *testing.B, pick func(finished, assign, started time.Duration) time.Duration) {
	benchCQ(b, func(n int) func() (time.Duration, int) {
		c := newCQCycler(n)
		c.reader = NewCentralQueue(nil)
		return func() (time.Duration, int) { return pick(c.cycle()), len(c.ends) }
	})
}

func BenchmarkCentralQueueStartedLogged(b *testing.B) {
	benchCQLogged(b, func(_, _, started time.Duration) time.Duration { return started })
}

func BenchmarkCentralQueueFinishedLogged(b *testing.B) {
	benchCQLogged(b, func(finished, _, _ time.Duration) time.Duration { return finished })
}

// The four rungs above drive one queue whose only expiring server is the
// one being finished. A scheduler's mirror in a multi-scheduler run lives
// differently: between two snapshots the clock passes the end of every task
// in its copy, it hears only the tenth it placed itself, and most of the
// time nobody asks it anything. The ratios are multisched_stale's (10
// schedulers, 60 s snapshots, 15 k nodes, 6 000 jobs, seed 4): 45 947
// tasks end over 2 407 refresh intervals, 19 per interval of one mirror's
// own and ten times that in its copy — one cqCycler batch of 256 is the
// nearest unit, so a sync every cycle and every tenth task heard — and a
// mirror is asked for a placement in 638 of the 2 407 intervals, 72 275 /
// 638 = 113 Assigns at a time (retries after a lost claim included).
const (
	cqStaleSyncEvery = 1   // R: truth cycles per SyncFrom
	cqStaleHeard     = 10  // the mirror placed one task in this many
	cqStaleAskEvery  = 4   // J: one sync interval in this many has an Assign burst
	cqStaleBurst     = 113 // Assigns per burst
)

// cqStaleMirror is a scheduler's mirror following a cqCycler truth.
type cqStaleMirror struct {
	truth     *cqCycler
	mirror    *CentralQueue
	intervals int
}

func newCQStaleMirror(n int) *cqStaleMirror {
	m := &cqStaleMirror{truth: newCQCycler(n), mirror: NewCentralQueue(nil)}
	m.mirror.SyncFrom(m.truth.q)
	return m
}

// interval runs one sync interval — SyncFrom, the truth's cycles with the
// mirror hearing its share of each, an Assign burst if this interval has
// one — and returns the time spent inside the mirror's TaskFinished,
// TaskStarted and Assign calls and how many there were. SyncFrom has its
// own rung and is not timed here.
func (m *cqStaleMirror) interval() (spent time.Duration, calls int) {
	c := m.truth
	m.mirror.SyncFrom(c.q)
	for range cqStaleSyncEvery {
		c.cycle()
		t0 := time.Now()
		for i := 0; i < len(c.ends); i += cqStaleHeard {
			m.mirror.TaskFinished(int(c.ends[i].node), c.ends[i].key)
		}
		for i := 0; i < len(c.ends); i += cqStaleHeard {
			m.mirror.TaskStarted(c.nodes[i], c.now, c.ests[i], c.ests[i])
		}
		spent += time.Since(t0)
		calls += 2 * ((len(c.ends) + cqStaleHeard - 1) / cqStaleHeard)
	}
	if m.intervals++; m.intervals%cqStaleAskEvery == 0 {
		t0 := time.Now()
		for range cqStaleBurst {
			m.mirror.Assign(c.now, 1000)
		}
		spent += time.Since(t0)
		calls += cqStaleBurst
	}
	return spent, calls
}

// BenchmarkCentralQueueStaleMirror is the mirror's side of a multi-scheduler
// run: ns per call the mirror receives, SyncFrom excluded.
func BenchmarkCentralQueueStaleMirror(b *testing.B) {
	benchCQ(b, func(n int) func() (time.Duration, int) { return newCQStaleMirror(n).interval })
}

// BenchmarkCentralQueueSyncFrom is one snapshot refresh: a warmed mirror
// catching up to a 90 %-busy truth. MB/s counts the bytes of the four
// arrays copied.
func BenchmarkCentralQueueSyncFrom(b *testing.B) {
	for _, size := range cqBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			truth := newCQCycler(size.n).q
			mirror := NewCentralQueue(nil)
			mirror.SyncFrom(truth)
			slots := len(truth.running) + len(truth.idle)
			b.SetBytes(int64(len(truth.servers))*24 + int64(slots)*16 + int64(len(truth.zero.words))*8)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				mirror.SyncFrom(truth)
			}
		})
	}
}

// unread runs one refresh interval nobody reads: the mirror's Snapshot,
// the truth's cycle, and the mirror's share of it, which the mirror holds.
// A cycle logs 3 changes per task of its batch, inside logCap at every
// size, so the mirror stays unread.
// It returns the time spent in Snapshot and the held calls; the next
// interval's Snapshot drops them and the truth's log. One op is one
// interval.
func (m *cqStaleMirror) unread() (spent time.Duration, calls int) {
	c := m.truth
	t0 := time.Now()
	m.mirror.Snapshot(c.q)
	spent = time.Since(t0)
	c.cycle()
	t0 = time.Now()
	for i := 0; i < len(c.ends); i += cqStaleHeard {
		m.mirror.TaskFinished(int(c.ends[i].node), c.ends[i].key)
	}
	for i := 0; i < len(c.ends); i += cqStaleHeard {
		m.mirror.TaskStarted(c.nodes[i], c.now, c.ests[i], c.ests[i])
	}
	return spent + time.Since(t0), 1
}

// BenchmarkCentralQueueSnapshot is the interval about three in four
// refreshes of multisched_stale are: a snapshot replaced by the next one
// before its scheduler places anything. ns per interval; before snapshots
// were lazy this was a SyncFrom plus the mirror's calls applied.
func BenchmarkCentralQueueSnapshot(b *testing.B) {
	benchCQ(b, func(n int) func() (time.Duration, int) { return newCQStaleMirror(n).unread })
}

// TestCentralQueueZeroAlloc pins the queue's steady state at zero
// allocations per operation, the runtime half of the //hawk:hotpath
// annotations in centralqueue.go (hawklint's hotalloc analyzer proves the
// allocating constructs absent; this proves the compiler agreed). The
// Remove→Add pair is the membership path: a recovered node reuses its
// record in the server array, where the pointer-based queue allocated a
// fresh one per recovery.
func TestCentralQueueZeroAlloc(t *testing.T) {
	c := newCQCycler(1000)
	q := c.q
	mirror := NewCentralQueue(nil)
	mirror.SyncFrom(q)
	stale := newCQStaleMirror(1000)
	unread := newCQStaleMirror(1000)
	lazy := NewCentralQueue(nil)
	now := c.now
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"assign-start-finish cycle", func() {
			now += 0.5
			id, _ := q.Assign(now, 3)
			q.TaskStarted(id, now, 3, 4)
			q.TaskFinished(id, now+1)
		}},
		{"AddLoad", func() { q.AddLoad(7, now, 1) }},
		{"SyncFrom into a warmed mirror", func() { mirror.SyncFrom(q) }},
		{"stale-mirror sync interval", func() { stale.interval() }},
		{"unread snapshot interval", func() { unread.unread() }},
		{"snapshot, own calls, source calls, read", func() {
			lazy.Snapshot(q)
			now += 0.5
			lazy.TaskFinished(5, now)
			lazy.TaskStarted(5, now, 2, 2)
			id, _ := q.Assign(now, 3)
			q.TaskStarted(id, now, 3, 4)
			lazy.AddLoad(9, now, 1)
			lazy.Assign(now, 2)
		}},
		{"Remove then Add", func() {
			if !q.Remove(17) || !q.Add(17, now) {
				t.Fatal("node 17 was not tracked")
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, allocs)
		}
	}
}
