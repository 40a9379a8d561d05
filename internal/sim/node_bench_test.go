package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The node layer's rungs of the measurement ladder: the three things a node
// does — take an entry into its queue, turn the scheduler's reply into a
// running task and that task's completion into the next request, and, when
// it runs dry, scan other nodes for a group to steal — each timed on its own
// by calling the node's methods directly, at the cluster sizes the
// experiments use. No event is dispatched in the timed region: what the
// methods schedule lands in an engine whose dispatch does nothing, drained
// between batches, so ns/op is node.go plus the pushes it makes and nothing
// of the event loop (internal/eventq has its own rungs).
//
// Queue depths, busy shares and class mixes are those of the Google trace
// on 15 000 nodes half way through a 20 000-job run (seed 42), the loaded
// point the end-to-end benchmark runs at, read off the node arena:
//
//	sparrow: 89 % of nodes busy, 3.3 entries queued per node (a quarter
//	         of the queues empty, 1 % deeper than 16)
//	hawk:    general partition 91 % busy, 78 % running a long task;
//	         81 % of its queues empty, 16 % hold one entry, 3 % two or
//	         three; 19 % of queued entries long; 6.1 victims contacted
//	         and 0.68 steals made per attempt, 1.2 entries per steal

var rungSizes = []struct {
	name string
	n    int
}{{"1k", 1000}, {"15k", 15000}, {"170k", 170000}}

// newRungSim builds an idle cluster of the given size under the policy — no
// workload, no scenario plane — whose engine swallows every event.
func newRungSim(tb testing.TB, nodes int, pol string) *simulation {
	tb.Helper()
	src := workload.NewGeneratorSource(workload.Google(), workload.GenConfig{})
	s, err := newSimulationSource(src, policy.Config{NumNodes: nodes, Policy: pol, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s.eng = eventq.New(func(float64, simEvent) {}, nodes, eventq.WithBackend(engineBackend))
	return s
}

// enqueueRung is a Sparrow cluster of busy nodes, each holding a queue at
// its steady depth. One op is one entry leaving the head of a random node's
// queue (what advance does to the queue when the slot frees: pop) and one
// enqueue onto its tail, so every path of enqueue is taken at its
// steady-state frequency: into an empty queue's front, front and the entry
// together into rest, the plain append to rest, the compaction that precedes
// an append into a full array whose head has moved, and the append after a
// drain rewound rest.
type enqueueRung struct {
	s     *simulation
	order []int32 // node ids, uniform with replacement; a power of two long
	i     int
}

func newEnqueueRung(tb testing.TB, nodes int) *enqueueRung {
	r := &enqueueRung{s: newRungSim(tb, nodes, "sparrow"), order: make([]int32, 1<<18)}
	rng := rand.New(rand.NewSource(1))
	for i := range r.s.nodes {
		n := &r.s.nodes[i]
		n.busy = true
		for range int(rng.ExpFloat64() * 3.8) { // floor of an exponential: geometric, mean 3.3
			n.enqueue(r.s, entry{tidx: -1}) // busy: queues, starts nothing
		}
	}
	for i := range r.order {
		r.order[i] = int32(rng.Intn(nodes))
	}
	settle(tb, func() {
		for range r.order {
			r.op()
		}
	})
	return r
}

func (r *enqueueRung) op() {
	n := &r.s.nodes[r.order[r.i&(len(r.order)-1)]]
	r.i++
	if n.queueLen() > 0 {
		n.pop()
	}
	n.enqueue(r.s, entry{tidx: -1})
}

func BenchmarkNodeEnqueue(b *testing.B) {
	for _, size := range rungSizes {
		b.Run(size.name, func(b *testing.B) {
			r := newEnqueueRung(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r.op()
			}
		})
	}
}

// replyRung is a Sparrow cluster in which every node holds its slot for a
// task-request round trip and has further probes queued behind it. One op is
// one reply: probeReply, and for the half of the replies that carry a task
// (batch sampling sends two probes per task, so the other half are cancels)
// the execute it leads to and, in a second pass over the batch so that the
// node has gone cold in between as it does over a task's duration, the
// taskDone that ends it. Either way the op ends in finishSlot, which starts
// the next queued probe's round trip. A batch is every node once in random
// order; between batches, untimed, each node gets back the probe it used up.
type replyRung struct {
	s     *simulation
	batch []replyTarget
}

// replyTarget is a node and the job all its probes belong to; even jobs have
// tasks to hand out, odd ones are drained and answer with a cancel.
type replyTarget struct{ node, job int32 }

const replyRungTasks = 16 // per job; a job is asked for nodes/jobs = 5 per batch

func newReplyRung(tb testing.TB, nodes int) *replyRung {
	r := &replyRung{s: newRungSim(tb, nodes, "sparrow"), batch: make([]replyTarget, nodes)}
	s := r.s
	rng := rand.New(rand.NewSource(1))
	// One job in flight per five nodes, as measured (2 923 on 15 000).
	s.jobs = make([]jobState, max(nodes/5, 2)&^1)
	for j := range s.jobs {
		s.jobs[j].durations = make([]float64, replyRungTasks)
		for t := range s.jobs[j].durations {
			s.jobs[j].durations[t] = rng.ExpFloat64() * 100
		}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		n.busy = true
		job := int32(i % len(s.jobs))
		for range int(rng.ExpFloat64() * 3.8) { // and one more from refill
			n.enqueue(s, entry{jidx: job, tidx: -1})
		}
		r.batch[i] = replyTarget{node: n.id, job: job}
	}
	rng.Shuffle(nodes, func(i, j int) { r.batch[i], r.batch[j] = r.batch[j], r.batch[i] })
	r.refill(nodes)
	settle(tb, func() {
		r.replies(nodes)
		r.refill(nodes)
	})
	return r
}

// replies runs the first n targets of the batch through one reply each.
func (r *replyRung) replies(n int) {
	s := r.s
	for _, t := range r.batch[:n] {
		s.nodes[t.node].probeReply(s, t.job)
	}
	now := s.eng.Now()
	for _, t := range r.batch[:n] {
		if t.job&1 == 0 {
			s.nodes[t.node].taskDone(s, t.job, 0, 0, 0, now)
		}
	}
}

// refill undoes what n replies consumed: a probe per node, the jobs' task
// and probe counts, and the events scheduled.
func (r *replyRung) refill(n int) {
	s := r.s
	for _, t := range r.batch[:n] {
		s.nodes[t.node].enqueue(s, entry{jidx: t.job, tidx: -1})
	}
	for j := range s.jobs {
		js := &s.jobs[j]
		js.next, js.finished, js.probes = int32(j&1)*replyRungTasks, 0, 1<<30
	}
	for s.eng.Step() {
	}
}

func BenchmarkProbeReply(b *testing.B) {
	for _, size := range rungSizes {
		b.Run(size.name, func(b *testing.B) {
			r := newReplyRung(b, size.n)
			timeBatches(b, size.n, r.replies, r.refill)
		})
	}
}

// stealRung is a Hawk cluster at the measured operating point. One op is one
// attemptSteal by an idle short-partition node: sample the candidates, and
// for each until a group is found read the victim's queue into the class
// flags, apply the Figure 3 rule, cut the group out and push it onto the
// thief's queue, which starts its first entry. There is about one stealable
// entry per short-partition node, so a batch is a sixteenth of them stealing
// once — the cluster a thief meets stays within 6 % of the measured one —
// and between batches, untimed, the whole cluster is put back.
type stealRung struct {
	s       *simulation
	thieves []int32 // a sixteenth of the short partition, picked at random
	staged  []node  // what reset copies into the general partition
}

func newStealRung(tb testing.TB, nodes int) *stealRung {
	r := &stealRung{s: newRungSim(tb, nodes, "hawk"), staged: make([]node, nodes)}
	s := r.s
	rng := rand.New(rand.NewSource(1))
	for id := range s.nodes {
		if int32(id) < s.shortOnly {
			r.thieves = append(r.thieves, int32(id))
			s.nodes[id].rest = make([]entry, 0, 4) // the deepest group there is to steal
			continue
		}
		if rng.Float64() >= 0.91 {
			continue // idle, so empty
		}
		n := &r.staged[id]
		n.busy, n.runningLong = true, rng.Float64() < 0.78/0.91
		depth := 0
		switch u := rng.Float64(); {
		case u >= 0.995:
			depth = 3
		case u >= 0.97:
			depth = 2
		case u >= 0.81:
			depth = 1
		}
		for range depth {
			e := entry{tidx: -1} // a short job's probe
			if rng.Float64() < 0.19 {
				e = entry{flags: entryTask | entryLong} // a long job's centrally placed task
			}
			n.enqueue(s, e)
		}
	}
	rng.Shuffle(len(r.thieves), func(i, j int) { r.thieves[i], r.thieves[j] = r.thieves[j], r.thieves[i] })
	r.thieves = r.thieves[:max(len(r.thieves)/16, 1)]
	r.reset()
	settle(tb, func() {
		r.steal(len(r.thieves))
		r.reset()
	})
	*s.res = policy.Report{} // counters from here on are the caller's ops
	return r
}

// steal has the first n thieves of the batch attempt one steal each.
func (r *stealRung) steal(n int) {
	for _, id := range r.thieves[:n] {
		r.s.attemptSteal(&r.s.nodes[id])
	}
}

// reset puts the cluster back: thieves idle and empty, the general
// partition as staged, nothing scheduled.
func (r *stealRung) reset() {
	s := r.s
	for _, id := range r.thieves {
		n := &s.nodes[id]
		n.clearQueue()
		n.busy = false
	}
	for id := int(s.shortOnly); id < len(s.nodes); id++ {
		n, staged := &s.nodes[id], &r.staged[id]
		n.front, n.hasFront = staged.front, staged.hasFront
		n.rest, n.head = append(n.rest[:0], staged.rest...), 0
		n.busy, n.runningLong = staged.busy, staged.runningLong
	}
	for s.eng.Step() {
	}
}

func BenchmarkStealScan(b *testing.B) {
	for _, size := range rungSizes {
		b.Run(size.name, func(b *testing.B) {
			r := newStealRung(b, size.n)
			res := r.s.res
			timeBatches(b, len(r.thieves), r.steal, func(int) { r.reset() })
			b.ReportMetric(float64(res.StealContacts)/float64(res.StealAttempts), "contacts/op")
			b.ReportMetric(float64(res.EntriesStolen)/float64(res.StealAttempts), "stolen/op")
		})
	}
}

// settle repeats round until one allocates nothing: every queue, scratch
// buffer and the engine's bucket pool has reached the size it keeps (the
// ladder's spare pool takes four drains of a 170 k-node batch).
func settle(tb testing.TB, round func()) {
	tb.Helper()
	var before, after runtime.MemStats
	for range 16 {
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		if after.Mallocs == before.Mallocs {
			return
		}
	}
	tb.Fatal("still allocating after 16 rounds")
}

// timeBatches runs timed over batches of at most size ops until b.N are
// done, calling untimed after each batch with the clock stopped, and reports
// the time spent in timed as ns/op. (StopTimer and StartTimer read the
// memory statistics on every call, which costs more than a small batch.)
func timeBatches(b *testing.B, size int, timed, untimed func(n int)) {
	b.ReportAllocs()
	b.ResetTimer()
	var spent time.Duration
	for done := 0; done < b.N; {
		n := min(size, b.N-done)
		start := time.Now()
		timed(n)
		spent += time.Since(start)
		untimed(n)
		done += n
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
}

// TestNodeRungsZeroAlloc pins what the three benchmarks time at zero
// allocations per op once every buffer has reached its size: the runtime
// half of the //hawk:hotpath annotations on node.go and attemptSteal.
func TestNodeRungsZeroAlloc(t *testing.T) {
	const nodes = 1000
	pin := func(name string, runs int, op func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, allocs)
		}
	}

	pin("enqueue", 10000, newEnqueueRung(t, nodes).op)

	reply := newReplyRung(t, nodes)
	i := 0
	pin("probe reply", nodes-1, func() {
		s, t := reply.s, reply.batch[i]
		i++
		s.nodes[t.node].probeReply(s, t.job)
		if t.job&1 == 0 {
			s.nodes[t.node].taskDone(s, t.job, 0, 0, 0, s.eng.Now())
		}
	})
	if s := reply.s; s.res.Cancels == 0 || s.res.TasksExecuted == 0 {
		t.Errorf("probe reply: %d cancels and %d tasks, want both paths taken", s.res.Cancels, s.res.TasksExecuted)
	}

	steal := newStealRung(t, nodes)
	s := steal.s
	i = 0
	pin("steal scan", 2000, func() {
		s.attemptSteal(&s.nodes[steal.thieves[i]])
		if i++; i == len(steal.thieves) {
			steal.reset()
			i = 0
		}
	})
	// The rung is only worth its name at the operating point it claims.
	contacts := float64(s.res.StealContacts) / float64(s.res.StealAttempts)
	success := float64(s.res.StealSuccesses) / float64(s.res.StealAttempts)
	if contacts < 4 || contacts > 8 || success < 0.5 || success > 0.9 {
		t.Errorf("steal scan: %.1f contacts and %.2f steals per attempt, want about the measured 6.1 and 0.68", contacts, success)
	}
}
