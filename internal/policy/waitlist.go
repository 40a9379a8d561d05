package policy

import "fmt"

// The waitlist rules both engines park by: Hawk itself never blocks work, so
// every reason to wait comes from a scenario plane and is one WaitKind with
// one WaitRules row. Each engine binds the entry point an item resumes
// through and runs its own release loop; docs/ARCHITECTURE.md ("Where
// blocked work waits") has the table in prose.

// WaitKind names one reason work is waiting. The kinds are listed in release
// order: a recovery releases the kinds it unblocks in this order, FIFO within
// a kind. In the simulator the order is behaviour — every resume draws from
// the run's random streams — and the goldens pin it. The live engine parks
// under four kinds only (see docs/ARCHITECTURE.md).
type WaitKind uint8

// The wait kinds.
const (
	WaitLostProbe  WaitKind = iota // probe re-send: no live node in the job's pool
	WaitPoolWidth                  // job at routing: churn shrank its probe pool below its task count
	WaitCentral                    // central placement (a whole job, or one task): scheduler down or serverless
	WaitExhausted                  // task: fault retry chain exhausted, or no live node for a direct send
	WaitSchedJob                   // job at routing: no live scheduler
	WaitSchedTask                  // central task: no live scheduler
	WaitSchedProbe                 // probe re-send: no live scheduler
	WaitSchedReply                 // a node's probe round trip, its slot held: no live scheduler
	NumWaitKinds
)

// Recovery is a set of the scenario events that unblock waiting work.
type Recovery uint8

// The recoveries a scenario can script.
const (
	NodeRecovered Recovery = 1 << iota
	CentralRestored
	SchedulerRecovered
)

// Releases reports whether the recovery releases kind k (before the row's
// HeldByCentral check).
func (r Recovery) Releases(k WaitKind) bool { return WaitRules[k].ReleasedBy&r != 0 }

const clauseCentral, clausePoolWidth, clauseLostProbe, clauseExhausted, clauseScheduler = 0, 1, 2, 3, 4

// WaitClauses are the deadlock error's detail clauses, in the order the
// error lists them; kinds that share a clause are summed.
var WaitClauses = [...]string{
	clauseCentral:   "%d central placements backlogged (scenario never restored the central scheduler?)",
	clausePoolWidth: "%d jobs parked for pool capacity (scenario never recovered enough nodes?)",
	clauseLostProbe: "%d probes waiting for a live pool node",
	clauseExhausted: "%d placements gave up after exhausting fault retries",
	clauseScheduler: "%d placements waiting for a live scheduler (scenario never recovered one?)",
}

// WaitRules is the per-kind table: the recoveries that release a kind;
// HeldByCentral, which keeps it parked through them while the central
// scheduler is still down or serverless (WaitCentral moves only once the
// scheduler is up and has a live server); and the index of its WaitClauses
// entry.
var WaitRules = [NumWaitKinds]struct {
	ReleasedBy    Recovery
	HeldByCentral bool
	Clause        int
}{
	WaitLostProbe:  {ReleasedBy: NodeRecovered, Clause: clauseLostProbe},
	WaitPoolWidth:  {ReleasedBy: NodeRecovered, Clause: clausePoolWidth},
	WaitCentral:    {ReleasedBy: NodeRecovered | CentralRestored, HeldByCentral: true, Clause: clauseCentral},
	WaitExhausted:  {ReleasedBy: NodeRecovered, Clause: clauseExhausted},
	WaitSchedJob:   {ReleasedBy: SchedulerRecovered, Clause: clauseScheduler},
	WaitSchedTask:  {ReleasedBy: SchedulerRecovered, Clause: clauseScheduler},
	WaitSchedProbe: {ReleasedBy: SchedulerRecovered, Clause: clauseScheduler},
	WaitSchedReply: {ReleasedBy: SchedulerRecovered, Clause: clauseScheduler},
}

// Waitlist is an engine's parked work: one list per kind, FIFO.
type Waitlist[T any] [NumWaitKinds][]T

// Deadlock is the diagnosis of a run that can make no more progress with
// done of total jobs completed: whatever never completed is waiting for a
// recovery the scenario never scripted, and the error says what and how
// much, clause by clause. engine prefixes the message.
func (w *Waitlist[T]) Deadlock(engine string, done, total int) error {
	var byClause [len(WaitClauses)]int
	for k, items := range w {
		byClause[WaitRules[k].Clause] += len(items)
	}
	detail := ""
	for c, n := range byClause {
		if n > 0 {
			detail += "; " + fmt.Sprintf(WaitClauses[c], n)
		}
	}
	return fmt.Errorf("%s: deadlock — %d of %d jobs completed%s", engine, done, total, detail)
}
