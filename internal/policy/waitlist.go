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
// the run's random streams — and the goldens pin it. Both engines park under
// every kind. Message loss parks nothing: the send after a message's last
// fault retry is reliable (see FaultSpec). Nor does node churn park a probe:
// every routed job was admitted under the feasibility margin
// (CheckFeasibility), so its pool keeps a live node per task.
type WaitKind uint8

// The wait kinds.
const (
	WaitCentral    WaitKind = iota // central placement (a whole job, or one task): scheduler down or serverless
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

const clauseCentral, clauseScheduler = 0, 1

// WaitClauses are the deadlock error's detail clauses, in the order the
// error lists them; kinds that share a clause are summed.
var WaitClauses = [...]string{
	clauseCentral:   "%d central placements backlogged (scenario never restored the central scheduler?)",
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
	WaitCentral:    {ReleasedBy: NodeRecovered | CentralRestored, HeldByCentral: true, Clause: clauseCentral},
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
