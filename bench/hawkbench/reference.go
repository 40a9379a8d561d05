package main

import "time"

// The reference pass: four fixed kernels, one per level of the memory
// hierarchy, timed back to back. The box this benchmark runs on is a small
// VM on a shared host, and what its neighbours do decides how fast it is:
// the same deterministic hawksim command takes 1.0 s in a quiet minute and
// 1.7 s in a busy one, CPU time with it, for minutes at a time, so no
// statistic over one invocation's runs (smallest, median) is steady across
// invocations. The kernels slow down with the host the way hawksim does —
// arithmetic barely, cache- and memory-bound work a lot — so a timing
// divided by the slowdown of the passes made right around it is steady
// where the timing is not (bench/README.md, Steadiness, has the numbers).
//
// The kernels are part of the benchmark's definition: changing a size or a
// count changes every *_ref_s metric, exactly like changing a workload.
const (
	refALUSteps   = 8 << 20 // dependent multiply-xorshift chain, no memory traffic
	refL2Entries  = 1 << 18 // 1 MiB of uint32: pointer chase that fits the L2
	refL2Steps    = 3 << 20
	refLLCEntries = 1 << 21 // 8 MiB of uint32: pointer chase that fits only the shared LLC
	refLLCSteps   = 600_000
	refStreamLen  = 4 << 20 // 32 MiB of uint64: sequential read-modify-write from DRAM
	refStreamReps = 2

	// refNominalS is one pass on the quiet 2-core Xeon VM the benchmark was
	// written on. It only sets the scale, so that *_ref_s metrics read as
	// seconds on that box; comparisons between commits do not depend on it.
	refNominalS = 0.1
)

// reference holds the kernels' arrays; they are built once, hold no
// pointers, and so cost the garbage collector nothing while measuring.
type reference struct {
	l2, llc []uint32
	stream  []uint64
	sink    uint64 // keeps the kernels' results live
}

func newReference() *reference {
	r := &reference{l2: singleCycle(refL2Entries), llc: singleCycle(refLLCEntries), stream: make([]uint64, refStreamLen)}
	r.pass() // untimed: the first pass pays for the arrays' page faults
	return r
}

// singleCycle returns a permutation of n entries that is one cycle
// (Sattolo's algorithm on a fixed LCG), so a chase visits all of them.
func singleCycle(n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	r := uint64(12345)
	for i := n - 1; i > 0; i-- {
		r = r*6364136223846793005 + 1442695040888963407
		j := int((r >> 33) % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func chase(perm []uint32, steps int) uint64 {
	var x uint32
	var s uint64
	for i := 0; i < steps; i++ {
		x = perm[x]
		s += uint64(x)
	}
	return s
}

// pass runs the four kernels once and returns the seconds they took.
func (r *reference) pass() float64 {
	t0 := time.Now()
	s := uint64(1)
	for i := 0; i < refALUSteps; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		s ^= s >> 29
	}
	s += chase(r.l2, refL2Steps)
	s += chase(r.llc, refLLCSteps)
	for rep := 0; rep < refStreamReps; rep++ {
		for i := range r.stream {
			s += r.stream[i]
			r.stream[i] = s
		}
	}
	r.sink += s
	return time.Since(t0).Seconds()
}

// bracketed times each call of f between two reference passes — pass, f,
// pass, f, pass: neighbours share the pass between them — until f returns
// false, and returns for each call the host's slowdown around it: the mean
// of the two passes over refNominalS. f reports its own duration.
func (r *reference) bracketed(f func() (seconds float64, more bool)) (seconds, slowdown []float64) {
	before := r.pass()
	for {
		s, more := f()
		after := r.pass()
		seconds = append(seconds, s)
		slowdown = append(slowdown, (before+after)/2/refNominalS)
		if !more {
			return seconds, slowdown
		}
		before = after
	}
}

// refSeconds divides each timing by the slowdown measured around it:
// seconds at the reference speed.
func refSeconds(seconds, slowdown []float64) []float64 {
	out := make([]float64, len(seconds))
	for i := range seconds {
		out[i] = seconds[i] / slowdown[i]
	}
	return out
}
