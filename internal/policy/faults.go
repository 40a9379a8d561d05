package policy

import (
	"fmt"
	"math"
	"slices"
)

// The gray-failure injection plane. Where ChurnSpec scripts fail-stop
// faults (a node is either in the cluster or gone), FaultSpec injects the
// partial failures real clusters actually exhibit: messages of the probe,
// steal, and placement planes are dropped with seeded i.i.d. probability
// per message class, every message leg picks up bounded seeded jitter on
// top of NetworkDelay, and scripted straggler events slow nodes down
// mid-run (stretching the task they are executing — distinct from the
// static speed skew of Heterogeneity). The defenses ride along: dropped
// scheduler messages time out and retry with exponential backoff, a message
// that exhausts its MaxRetries retries is re-sent once more, reliably (late,
// never lost, never a hang), and optional speculative re-execution
// duplicates a task that runs past a percentile-based delay threshold,
// first completion winning.
//
// A nil FaultSpec on Config is the reliable-network model every golden
// report pins; Normalize canonicalizes a spec that injects nothing back to
// nil so both mean the same configuration by construction.

// MaxFaultRetries bounds FaultSpec.MaxRetries: engines pack the retry
// attempt of an in-flight timeout into a few bits of event state.
const MaxFaultRetries = 30

// StragglerEvent scripts one mid-run slowdown: at time At, Count random live
// nodes start executing Factor times slower than their configured speed.
// A node's task in flight when the event fires stretches accordingly;
// Factor 1 restores full speed for subsequent tasks (an in-flight task does
// not shrink retroactively). A straggling node is slow, not dead: it keeps
// its place in the membership view and does not count against
// ChurnSpec.MaxConcurrentFailures or the feasibility margin.
type StragglerEvent struct {
	// At is the event time in seconds from the start of the run.
	At float64 `json:"at"`
	// Count is how many random live nodes slow down (at least 1); the
	// picks draw from the fault plane's dedicated seeded stream.
	Count int `json:"count,omitempty"`
	// Factor is the slowdown multiplier applied to task execution time
	// (>= 1; exactly 1 ends a slowdown).
	Factor float64 `json:"factor"`
}

// FaultSpec configures the gray-failure injection plane and its defenses.
// All randomness (loss draws, jitter, duplicate-host sampling, straggler
// picks) comes from a dedicated stream (Config.Seed + SeedFaults), so a
// fault-free run draws the exact same main-stream sequence as one that
// never set the spec.
//
// Both engines run the same rules — the loss classes, Config.Backoff and
// SpeculationThreshold — and one exhausted-retry rule: the first send of a
// probe, reply, assignment or commit and each of its MaxRetries retries can
// be dropped, retry k waits Config.Backoff(k) (four network delays,
// doubling per attempt), and a message dropped all MaxRetries+1 times is
// sent once more after Backoff(MaxRetries+1) with no loss draw. A dropped
// scheduler-to-node message is re-sent to the node it was addressed to.
// (A live speculation loser runs out its sleep rather than being cancelled;
// both engines count it as SpeculativeWasted.)
type FaultSpec struct {
	// ProbeLoss is the drop probability of a scheduler-to-node probe
	// message. A dropped probe is re-sent to the same node with
	// exponential backoff; after MaxRetries retries it is re-sent once
	// more, reliably.
	ProbeLoss float64 `json:"probeLoss,omitempty"`
	// ReplyLoss is the drop probability of the node-to-scheduler task
	// request round trip that resolves a probe. The node monitor re-issues
	// the request with exponential backoff, holding its slot; after
	// MaxRetries retries it is re-sent once more, reliably.
	ReplyLoss float64 `json:"replyLoss,omitempty"`
	// StealLoss is the drop probability of one steal request/response
	// exchange. Stealing is opportunistic, so a dropped contact is simply
	// skipped — the thief moves on to its next candidate victim.
	StealLoss float64 `json:"stealLoss,omitempty"`
	// AssignLoss is the drop probability of a central task assignment
	// message. The assignment retries toward the same node with
	// exponential backoff; after MaxRetries retries it is re-sent once
	// more, reliably.
	AssignLoss float64 `json:"assignLoss,omitempty"`
	// CommitLoss is the drop probability of a multi-scheduler commit
	// message (the post-claim task send of the optimistic protocol). Only
	// meaningful with Config.Schedulers; retries like AssignLoss.
	CommitLoss float64 `json:"commitLoss,omitempty"`
	// Jitter is the maximum extra one-way delay in seconds added to every
	// message leg, drawn uniformly from [0, Jitter) per leg.
	Jitter float64 `json:"jitter,omitempty"`
	// MaxRetries bounds the lossy retries of a dropped probe, reply,
	// assignment or commit (default 3, at most MaxFaultRetries); a message
	// dropped on all of them is re-sent once more, reliably. Attempt k
	// waits Config.Backoff(k) before re-sending.
	MaxRetries int `json:"maxRetries,omitempty"`
	// Stragglers scripts mid-run node slowdowns, applied in time order.
	Stragglers []StragglerEvent `json:"stragglers,omitempty"`
	// Speculate enables speculative re-execution of straggling short
	// tasks: a probe-scheduled task still running SpeculatePercentile of
	// its job's task-duration distribution after launch gets a duplicate on
	// a fresh node; the first completion wins and the loser is cancelled
	// through the churn incarnation machinery. Centrally placed tasks are
	// not speculated (the central queue already tracks their progress).
	Speculate bool `json:"speculate,omitempty"`
	// SpeculatePercentile is the delay threshold percentile (default 95)
	// of the job's task durations after which a running task is duplicated.
	SpeculatePercentile float64 `json:"speculatePercentile,omitempty"`
}

// UniformLoss returns the spec that drops every message class (probe, reply,
// steal, assign, commit) with the same probability p and sets nothing else;
// callers add jitter, retries, or stragglers on the returned value.
func UniformLoss(p float64) FaultSpec {
	return FaultSpec{ProbeLoss: p, ReplyLoss: p, StealLoss: p, AssignLoss: p, CommitLoss: p}
}

// MessageDrops counts dropped messages by class; the Report carries it as
// a nil-able pointer so fault-free reports serialize byte-identically to
// runs that predate the fault plane.
type MessageDrops struct {
	Probes  int64 `json:"probes,omitempty"`
	Replies int64 `json:"replies,omitempty"`
	Steals  int64 `json:"steals,omitempty"`
	Assigns int64 `json:"assigns,omitempty"`
	Commits int64 `json:"commits,omitempty"`
}

// Total sums the per-class drop counts.
func (m *MessageDrops) Total() int64 {
	if m == nil {
		return 0
	}
	return m.Probes + m.Replies + m.Steals + m.Assigns + m.Commits
}

// SpeculationThreshold returns a job's speculation delay threshold in
// seconds — the nearest-rank SpeculatePercentile of its task durations —
// together with the sort scratch (durations copied into scratch[:0] and
// sorted), which a caller on a hot path retains for its next call.
func (f FaultSpec) SpeculationThreshold(durations, scratch []float64) (float64, []float64) {
	scratch = append(scratch[:0], durations...)
	slices.Sort(scratch)
	rank := int(float64(len(scratch))*f.SpeculatePercentile/100+0.5) - 1
	rank = max(rank, 0)
	rank = min(rank, len(scratch)-1)
	return scratch[rank], scratch
}

// probability reports whether p is a valid probability: in [0, 1] and not
// NaN (the comparison rejects NaN by construction).
func probability(p float64) bool { return p >= 0 && p <= 1 }

// normalize validates the spec and resolves its defaults; numNodes is the
// already-resolved Config value the straggler targets validate against.
func (f FaultSpec) normalize(numNodes int) (FaultSpec, error) {
	for _, c := range []struct {
		name string
		p    float64
	}{
		{"ProbeLoss", f.ProbeLoss},
		{"ReplyLoss", f.ReplyLoss},
		{"StealLoss", f.StealLoss},
		{"AssignLoss", f.AssignLoss},
		{"CommitLoss", f.CommitLoss},
	} {
		if !probability(c.p) {
			return f, fmt.Errorf("config: Faults.%s must be a probability in [0, 1], got %g", c.name, c.p)
		}
	}
	if !finiteNonNegative(f.Jitter) {
		return f, fmt.Errorf("config: Faults.Jitter must be finite and non-negative, got %g", f.Jitter)
	}
	if f.MaxRetries < 0 || f.MaxRetries > MaxFaultRetries {
		return f, fmt.Errorf("config: Faults.MaxRetries must be in [0, %d], got %d", MaxFaultRetries, f.MaxRetries)
	}
	if f.MaxRetries == 0 {
		f.MaxRetries = 3
	}
	for i, ev := range f.Stragglers {
		if !finiteNonNegative(ev.At) {
			return f, fmt.Errorf("config: straggler event %d: At must be finite and non-negative, got %g", i, ev.At)
		}
		if !(ev.Factor >= 1) || math.IsInf(ev.Factor, 1) {
			return f, fmt.Errorf("config: straggler event %d: Factor must be finite and at least 1, got %g", i, ev.Factor)
		}
		if ev.Count < 1 {
			return f, fmt.Errorf("config: straggler event %d: Count must be at least 1, got %d", i, ev.Count)
		}
		if ev.Count > numNodes {
			return f, fmt.Errorf("config: straggler event %d: Count %d exceeds %d nodes", i, ev.Count, numNodes)
		}
	}
	if !probability(f.SpeculatePercentile / 100) {
		return f, fmt.Errorf("config: Faults.SpeculatePercentile must be in [0, 100], got %g", f.SpeculatePercentile)
	}
	if f.SpeculatePercentile == 0 {
		f.SpeculatePercentile = 95
	}
	return f, nil
}

// injectsNothing reports whether the (validated) spec is behaviorally
// identical to a nil one: no loss, no jitter, no stragglers, no
// speculation. MaxRetries alone configures a defense with nothing to defend
// against.
func (f FaultSpec) injectsNothing() bool {
	return f.ProbeLoss == 0 && f.ReplyLoss == 0 && f.StealLoss == 0 &&
		f.AssignLoss == 0 && f.CommitLoss == 0 && f.Jitter == 0 &&
		len(f.Stragglers) == 0 && !f.Speculate
}
