// Package randdist provides seeded random distributions used by the
// workload generators, the simulator, and the live runtime.
//
// All state is held in an explicit *Source so that every experiment is
// reproducible from a single integer seed and safe to run in parallel
// (each goroutine owns its own Source). hawklint's determinism analyzer
// keeps it that way: seeded rand.New(rand.NewSource(...)) streams are the
// only randomness allowed here — never the global math/rand functions.
//
// A Source's generator is a concrete type (stream.go), stream-identical to
// rand.NewSource(seed): New(seed) yields, call for call, the values
// rand.New(rand.NewSource(seed)) would. The distribution helpers go through
// a rand.Rand wrapped around it; the samplers draw straight from it, without
// an interface call or a division per draw.
//
// A product that meets an addition is written float64(x*y). The Go spec
// lets a compiler fuse x*y + z into one multiply-add, which rounds once
// where the source rounds twice, and gc does so on arm64; an explicit
// conversion rounds the product and may not be fused across. The same
// spelling guards the other deterministic packages, and CI's "nothing fuses
// on arm64" step fails on any fused op left in them.
//
//hawk:deterministic
package randdist

import (
	"math"
	"math/rand"
)

// Source is a seeded random source with the distribution helpers the Hawk
// reproduction needs. It is not safe for concurrent use; create one Source
// per goroutine.
type Source struct {
	stream stream
	rng    *rand.Rand // wraps &stream
	draw   draw       // intn's cached divisor state

	// Scratch state reused by SampleWithoutReplacementInto so steady-state
	// sampling performs zero heap allocations. The buffers are private to
	// one call at a time (a Source is single-goroutine by contract), and
	// only their capacity survives between calls — never their contents.
	//
	// stamp/gen implement the rejection set as a generation-stamped array
	// rather than a map: value v is "seen this call" iff stamp[v] == gen,
	// and bumping gen invalidates the whole set in O(1). A map here would
	// pay a whole-table clear per call (Go's map clear zeroes every
	// bucket), which profiles as the dominant cost of steal-candidate
	// sampling — each steal attempt draws ~10 values but would clear a
	// table sized by the largest probe burst ever drawn.
	stamp       []uint32
	gen         uint32
	permScratch []int
}

// New returns a Source seeded with seed. Equal seeds yield equal streams.
func New(seed int64) *Source {
	s := &Source{}
	s.stream.seed(seed)
	s.rng = rand.New(&s.stream)
	return s
}

// Fork derives an independent child source. The child stream is a pure
// function of the parent's current state, so forking preserves determinism.
func (s *Source) Fork() *Source {
	return New(s.rng.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*s.rng.Float64())
}

// Exp returns an exponentially distributed value with the given mean.
// The paper's derived traces (§4.1) draw task counts and mean task
// durations from exponential distributions around cluster centroids.
func (s *Source) Exp(mean float64) float64 {
	return float64(s.rng.ExpFloat64() * mean)
}

// TruncGaussian returns a Gaussian sample with the given mean and standard
// deviation, redrawn until non-negative. The paper draws per-task runtimes
// from a Gaussian with sigma = 2*mean, "excluding negative values" (§4.1).
func (s *Source) TruncGaussian(mean, stddev float64) float64 {
	for {
		v := float64(s.rng.NormFloat64()*stddev) + mean
		if v >= 0 {
			return v
		}
	}
}

// LogNormal returns a log-normal sample where mu and sigma parameterize the
// underlying normal distribution. Used to give the synthetic Google trace a
// heavy-tailed task-duration distribution matching Figure 4.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(float64(s.rng.NormFloat64()*sigma) + mu)
}

// SampleWithoutReplacement returns k distinct uniform values from [0, n).
// If k >= n it returns a full permutation. It is the allocating convenience
// form of SampleWithoutReplacementInto and draws the identical value
// sequence for identical (seed, n, k) call sequences.
func (s *Source) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	return s.SampleWithoutReplacementInto(make([]int, 0, k), n, k)
}

// SampleWithoutReplacementInto appends k distinct uniform values from
// [0, n) to dst and returns the extended slice, consuming exactly the same
// random draws as SampleWithoutReplacement. When dst has capacity for the
// appended values the call performs zero heap allocations in steady state:
// the rejection set and the Fisher-Yates workspace are scratch buffers on
// the Source, reused across calls. Callers on the simulator hot path thread
// a per-simulation buffer through (see internal/sim); calls must not be
// nested on one Source.
//
// For k much smaller than n it uses rejection sampling via the reused set,
// which is O(k) expected time, so probe and steal-victim selection stay
// cheap even on 50000-node clusters; for large k relative to n a partial
// Fisher-Yates avoids rejection stalls.
//
//hawk:hotpath
func (s *Source) SampleWithoutReplacementInto(dst []int, n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	if k*3 >= n {
		s.permScratch = s.permInto(s.permScratch[:0], n)
		dst = append(dst, s.permScratch[:k]...)
		return dst
	}
	if n > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.gen++
	if s.gen == 0 {
		// Generation counter wrapped: stale stamps could alias the new
		// generation, so reset them once and restart at 1.
		clear(s.stamp)
		s.gen = 1
	}
	for added := 0; added < k; {
		v := s.intn(n)
		if s.stamp[v] == s.gen {
			continue
		}
		s.stamp[v] = s.gen
		dst = append(dst, v)
		added++
	}
	return dst
}

// permInto appends a uniform permutation of [0, n) to dst, consuming the
// exact random draws math/rand's Perm would — including the redundant
// Intn(1) of the i = 0 iteration, which rand.Perm keeps for Go 1 stream
// compatibility. That draw-for-draw equivalence is what lets the Into
// sampling path reproduce the allocating path bit-for-bit.
//
//hawk:hotpath
func (s *Source) permInto(dst []int, n int) []int {
	start := len(dst)
	for i := 0; i < n; i++ {
		j := s.rng.Intn(i + 1)
		dst = append(dst, 0)
		dst[start+i] = dst[start+j]
		dst[start+j] = i
	}
	return dst
}

// ArrivalProcess generates job submission times.
type ArrivalProcess struct {
	src  *Source
	mean float64
	now  float64
}

// NewArrivalProcess returns a Poisson arrival process whose inter-arrival
// times are exponential with the given mean (seconds). The paper derives
// job submission times "from a Poisson distribution" (§2.3, §4.1).
func NewArrivalProcess(src *Source, meanInterArrival float64) *ArrivalProcess {
	return &ArrivalProcess{src: src, mean: meanInterArrival}
}

// Next advances the process and returns the next absolute arrival time.
func (a *ArrivalProcess) Next() float64 {
	a.now += a.src.Exp(a.mean)
	return a.now
}
