package sim

// The waitlist: the one place work waits when it cannot be placed right now.
// Hawk itself never blocks work, so every reason to wait comes from a
// scenario plane, and each is one waitKind with one waitKinds row: which
// recovery releases it, through which ordinary entry point its items
// resume, and under which clause run() reports them if no recovery ever
// comes. docs/ARCHITECTURE.md (Invariants) has the table in prose. A static
// run never parks anything.

// waitKind names one reason work is waiting. The kinds are listed in release
// order: a recovery releases the kinds it unblocks in this order, FIFO
// within a kind. The order is behaviour — every resume draws from the run's
// random streams — and the goldens pin it.
type waitKind uint8

const (
	waitLostProbe  waitKind = iota // probe re-send: no live node in the job's pool
	waitPoolWidth                  // job at routing: churn shrank its probe pool below its task count
	waitCentral                    // central placement (tidx < 0: a whole job): scheduler down or serverless
	waitExhausted                  // task: fault retry chain exhausted, or no live node for a direct send
	waitSchedJob                   // job at routing: no live scheduler
	waitSchedTask                  // central task: no live scheduler
	waitSchedProbe                 // probe re-send: no live scheduler
	waitSchedReply                 // node's probe round trip (node, gen pin its held slot): no live scheduler
	numWaitKinds
)

// waiting is one parked item: a job (tidx < 0) or one of its tasks, plus
// the held slot when what waits is a node's probe round trip.
type waiting struct {
	jidx, tidx int32
	node       int32
	gen        uint8
}

// recovery is a set of the scenario events that unblock waiting work.
type recovery uint8

const (
	nodeRecovered recovery = 1 << iota
	centralRestored
	schedulerRecovered
)

// waitClause indexes waitClauses, the deadlock error's detail clauses in the
// order the error lists them; kinds that share a clause are summed.
type waitClause uint8

const (
	clauseCentral waitClause = iota
	clausePoolWidth
	clauseLostProbe
	clauseExhausted
	clauseScheduler
)

var waitClauses = [...]string{
	clauseCentral:   "%d central placements backlogged (scenario never restored the central scheduler?)",
	clausePoolWidth: "%d jobs parked for pool capacity (scenario never recovered enough nodes?)",
	clauseLostProbe: "%d probes waiting for a live pool node",
	clauseExhausted: "%d placements gave up after exhausting fault retries",
	clauseScheduler: "%d placements waiting for a live scheduler (scenario never recovered one?)",
}

// waitKinds is the per-kind table. held, when set, keeps a list parked
// through a recovery that does not actually unblock it: waitCentral moves
// only once the scheduler is up and has a live server. (Only central
// placement parks there, so a non-empty list implies the central queue held
// dereferences exists.)
var waitKinds = [numWaitKinds]struct {
	releasedBy recovery
	held       func(*simulation) bool
	resume     func(*simulation, waiting)
	clause     waitClause
}{
	waitLostProbe:  {releasedBy: nodeRecovered, resume: (*simulation).resumeProbe, clause: clauseLostProbe},
	waitPoolWidth:  {releasedBy: nodeRecovered, resume: (*simulation).resumeJob, clause: clausePoolWidth},
	waitCentral:    {releasedBy: nodeRecovered | centralRestored, held: (*simulation).centralUnavailable, resume: (*simulation).resumeCentral, clause: clauseCentral},
	waitExhausted:  {releasedBy: nodeRecovered, resume: (*simulation).resumeTask, clause: clauseExhausted},
	waitSchedJob:   {releasedBy: schedulerRecovered, resume: (*simulation).resumeJob, clause: clauseScheduler},
	waitSchedTask:  {releasedBy: schedulerRecovered, resume: (*simulation).resumeCentral, clause: clauseScheduler},
	waitSchedProbe: {releasedBy: schedulerRecovered, resume: (*simulation).resumeProbe, clause: clauseScheduler},
	waitSchedReply: {releasedBy: schedulerRecovered, resume: (*simulation).resumeReply, clause: clauseScheduler},
}

// park makes one item wait under kind k. Report.CentralDeferred counts
// exactly the central placements that had to.
func (s *simulation) park(k waitKind, w waiting) {
	if k == waitCentral {
		s.res.CentralDeferred++
	}
	s.waits[k] = append(s.waits[k], w)
}

// release re-enters everything the recovery unblocks. Each list is swapped
// out first, so an item that has to wait again — under its old kind or
// another — parks afresh instead of being revisited.
func (s *simulation) release(by recovery) {
	for k := range waitKinds {
		kind := &waitKinds[k]
		if kind.releasedBy&by == 0 || len(s.waits[k]) == 0 || kind.held != nil && kind.held(s) {
			continue
		}
		pending := s.waits[k]
		s.waits[k] = nil
		for _, w := range pending {
			kind.resume(s, w)
		}
	}
}

// The resume functions re-enter an item through the entry point that parked it.

func (s *simulation) resumeProbe(w waiting) { s.resendProbe(w.jidx) }
func (s *simulation) resumeJob(w waiting)   { s.routeJob(w.jidx) }
func (s *simulation) resumeTask(w waiting)  { s.placeTask(w.jidx, w.tidx) }

func (s *simulation) resumeCentral(w waiting) {
	if w.tidx < 0 {
		s.centralJob(w.jidx)
		return
	}
	s.centralTask(w.jidx, w.tidx)
}

func (s *simulation) resumeReply(w waiting) {
	if s.dyn != nil && s.dyn.epoch[w.node] != w.gen {
		return // the node failed while parked; its probe was re-sent then
	}
	s.sendReply(w.node, w.gen, w.jidx, 0)
}
