package core

import "slices"

// SchedulerSet is the live membership of the multi-scheduler model (§4.10)
// and the rule that partitions jobs over it. It is a pure, clock-free
// kernel shared by both engines: the simulator drives it from scheduler
// churn events, the live engine from its churn controller under a lock.
// Because the live ids are kept sorted, the owner of a job depends only on
// (job id, which schedulers are live) — never on the order failures and
// recoveries happened in — so the two engines agree on it.
type SchedulerSet struct {
	live []int32 // live scheduler ids, ascending
}

// NewSchedulerSet returns the set {0, …, n-1}, every scheduler live.
func NewSchedulerSet(n int) *SchedulerSet {
	s := &SchedulerSet{live: make([]int32, n)}
	for i := range s.live {
		s.live[i] = int32(i)
	}
	return s
}

// Owner hash-partitions a job id over the live schedulers, or returns -1
// when none is live. Fibonacci hashing rather than a modulo of the raw id:
// trace ids are often sequential, and a multiplicative hash spreads them
// evenly across any scheduler count without consuming randomness. A job
// whose owner fails re-hashes by calling Owner again.
//
//hawk:hotpath
func (s *SchedulerSet) Owner(jobID int) int32 {
	if len(s.live) == 0 {
		return -1
	}
	h := uint64(uint32(jobID)) * 0x9e3779b97f4a7c15
	return s.live[(h>>33)%uint64(len(s.live))]
}

// Fail removes scheduler id from the live set; a no-op if it is not live.
func (s *SchedulerSet) Fail(id int32) {
	if i, live := slices.BinarySearch(s.live, id); live {
		s.live = slices.Delete(s.live, i, i+1)
	}
}

// Recover returns scheduler id to the live set, keeping it sorted; a no-op
// if it is already live. The backing array was sized for the full set at
// construction, so neither transition allocates.
func (s *SchedulerSet) Recover(id int32) {
	if i, live := slices.BinarySearch(s.live, id); !live {
		s.live = slices.Insert(s.live, i, id)
	}
}
