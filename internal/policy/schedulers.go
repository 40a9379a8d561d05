package policy

import "fmt"

// The distributed multi-scheduler model (§4.10). The paper's evaluation
// runs ten concurrent Hawk schedulers; this spec makes that concurrency a
// first-class, engine-shared model in the shared-state optimistic style:
// every scheduler owns an independent, *stale* copy of the central queue,
// places tasks optimistically against that snapshot, and on a placement
// conflict (the slot was claimed by another scheduler's placement it could
// not yet see) detects-and-retries with a bounded backoff before forcing a
// snapshot refresh. Jobs hash-partition across the
// live schedulers; scheduler failure and recovery ride the ordinary churn
// machinery (ChurnSchedFail / ChurnSchedRecover), with a failed scheduler's
// jobs re-assigned to the survivors.

// MaxSchedulers bounds SchedulerSpec.Count: engines store scheduler ids in
// one byte alongside the other packed per-entry state, and the paper's
// sweep tops out at 100 schedulers.
const MaxSchedulers = 256

// SchedulerSpec configures the multi-scheduler model. A nil spec on Config
// is the legacy single-scheduler model: one exact, always-fresh central
// queue, no conflicts — the byte-identical fast path every golden report
// pins. Normalize canonicalizes a spec with Count 1 and no scheduler churn
// back to nil, so "one scheduler" and "the model turned off" are the same
// configuration by construction.
type SchedulerSpec struct {
	// Count is the number of concurrent schedulers (2..MaxSchedulers for
	// the model to engage). Zero resolves to 10, the prototype's scheduler
	// count in §4.10.
	Count int `json:"count"`
	// SnapshotInterval is the cluster-state refresh cadence in seconds
	// (default 5): an active scheduler re-reads the shared central queue
	// every interval, and a dormant scheduler catches up before its first placement after one.
	// Smaller intervals mean fresher views and fewer conflicts at more
	// refresh traffic — the staleness/conflict trade the sweep measures.
	SnapshotInterval float64 `json:"snapshotInterval,omitempty"`
}

// schedulerRetries is a placement's conflict-retry budget: conflicts
// 1..schedulerRetries retry against the stale snapshot after
// Config.Backoff(1), and the next one forces a snapshot refresh.
const schedulerRetries = 3

// RetriesExhausted reports whether a placement that has now conflicted
// `conflicts` times has used up its retry budget: conflict
// schedulerRetries+1 forces a snapshot refresh and places against fresh
// state.
func (s SchedulerSpec) RetriesExhausted(conflicts int) bool {
	return conflicts > schedulerRetries
}

// normalize validates the spec and resolves its defaults.
func (s SchedulerSpec) normalize() (SchedulerSpec, error) {
	if s.Count == 0 {
		s.Count = 10
	}
	if s.Count < 1 || s.Count > MaxSchedulers {
		return s, fmt.Errorf("config: Schedulers.Count must be in [1, %d], got %d", MaxSchedulers, s.Count)
	}
	if !finiteNonNegative(s.SnapshotInterval) {
		return s, fmt.Errorf("config: Schedulers.SnapshotInterval must be finite and non-negative, got %g", s.SnapshotInterval)
	}
	if s.SnapshotInterval == 0 {
		s.SnapshotInterval = 5
	}
	return s, nil
}

// SchedulerChurn builds the churn events scripting one scheduler's failure
// at failAt and, when recoverAt > failAt, its recovery — the scheduler-side
// analogue of a node fail/recover pair, for a ChurnSpec literal's Events.
func SchedulerChurn(scheduler int, failAt, recoverAt float64) []ChurnEvent {
	evs := []ChurnEvent{{At: failAt, Kind: ChurnSchedFail, Node: scheduler}}
	if recoverAt > failAt {
		evs = append(evs, ChurnEvent{At: recoverAt, Kind: ChurnSchedRecover, Node: scheduler})
	}
	return evs
}

// HasSchedulerEvents reports whether the spec scripts any scheduler
// failures or recoveries.
func (s *ChurnSpec) HasSchedulerEvents() bool {
	if s == nil {
		return false
	}
	for _, ev := range s.Events {
		if ev.Kind == ChurnSchedFail || ev.Kind == ChurnSchedRecover {
			return true
		}
	}
	return false
}
