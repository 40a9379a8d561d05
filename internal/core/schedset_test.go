package core

import (
	"slices"
	"testing"

	"repro/internal/randdist"
)

// setOf builds the set of `of` schedulers with exactly the given ids live.
func setOf(of int, live ...int32) *SchedulerSet {
	s := NewSchedulerSet(of)
	for id := int32(0); id < int32(of); id++ {
		if !slices.Contains(live, id) {
			s.Fail(id)
		}
	}
	return s
}

// The owner hash is part of the engines' shared contract (and of the
// hawk-sched2 golden): these vectors were taken from the implementation
// both engines carried before it moved here, so the hash cannot drift.
func TestSchedulerSetOwnerVectors(t *testing.T) {
	ids := []int{0, 1, 2, 3, 7, 42, 1000, 123456, -1, 1<<32 + 7}
	for _, c := range []struct {
		live []int32
		want []int32
	}{
		{[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int32{0, 4, 1, 6, 1, 9, 4, 5, 3, 1}},
		{[]int32{0, 2, 5}, []int32{0, 2, 2, 0, 2, 5, 5, 2, 0, 2}},
		{[]int32{3}, []int32{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}},
		{[]int32{0, 1}, []int32{0, 0, 1, 0, 1, 1, 0, 1, 1, 1}},
		{nil, []int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1}},
	} {
		s := setOf(10, c.live...)
		for i, id := range ids {
			if got := s.Owner(id); got != c.want[i] {
				t.Errorf("live %v: Owner(%d) = %d, want %d", c.live, id, got, c.want[i])
			}
		}
	}
}

// checkSet compares the set against a membership model: the live list is
// exactly the model's members in ascending order, and Owner answers -1 on
// the empty set and a live member otherwise.
func checkSet(t *testing.T, s *SchedulerSet, member []bool) {
	t.Helper()
	var want []int32
	for id, up := range member {
		if up {
			want = append(want, int32(id))
		}
	}
	if !slices.Equal(s.live, want) {
		t.Fatalf("live = %v, want %v", s.live, want)
	}
	for _, job := range []int{0, 1, 99, 123456} {
		owner := s.Owner(job)
		if len(want) == 0 && owner != -1 {
			t.Fatalf("Owner(%d) = %d on an empty set, want -1", job, owner)
		}
		if len(want) > 0 && !slices.Contains(want, owner) {
			t.Fatalf("Owner(%d) = %d, not in the live set %v", job, owner, want)
		}
	}
}

// applySetOps drives Fail/Recover from a byte string (low bit: recover,
// rest: scheduler id), checking the invariants after every step. Repeated
// and out-of-order transitions are part of the input space: both are no-ops.
func applySetOps(t *testing.T, n int, ops []byte) {
	s := NewSchedulerSet(n)
	member := make([]bool, n)
	for i := range member {
		member[i] = true
	}
	checkSet(t, s, member)
	for _, op := range ops {
		id := int(op>>1) % n
		if op&1 == 0 {
			s.Fail(int32(id))
			member[id] = false
		} else {
			s.Recover(int32(id))
			member[id] = true
		}
		checkSet(t, s, member)
	}
}

func TestSchedulerSetRandomTransitions(t *testing.T) {
	src := randdist.New(11)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, src.Intn(60))
		for i := range ops {
			ops[i] = byte(src.Intn(256))
		}
		applySetOps(t, 1+src.Intn(12), ops)
	}
}

func FuzzSchedulerSet(f *testing.F) {
	f.Add(uint8(3), []byte{0, 2, 4, 1, 3, 5})
	f.Add(uint8(1), []byte{0, 0, 1, 1})
	f.Add(uint8(10), []byte{18, 0, 7, 19, 1})
	f.Fuzz(func(t *testing.T, n uint8, ops []byte) {
		applySetOps(t, 1+int(n%32), ops)
	})
}

func TestSchedulerSetZeroAllocs(t *testing.T) {
	s := NewSchedulerSet(10)
	var sink int32
	if allocs := testing.AllocsPerRun(500, func() {
		sink += s.Owner(int(sink) + 17)
		s.Fail(4)
		s.Fail(0)
		s.Recover(0)
		s.Recover(4)
	}); allocs != 0 {
		t.Errorf("Owner/Fail/Recover allocated %v times per run", allocs)
	}
}
