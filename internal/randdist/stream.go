package randdist

import (
	"math"
	"math/bits"
	"math/rand"
)

// The lags of math/rand's additive lagged-Fibonacci generator: its k-th
// output is x_k = x_{k-607} + x_{k-273} (mod 2^64).
const (
	lagLong  = 607
	lagShort = 273
)

// stream is math/rand's generator as a concrete type: the same recurrence
// over the same state, so it yields rand.NewSource(seed)'s values in the
// same order, and the hot path draws from it with a direct call instead of
// through the rand.Source interface. It implements rand.Source64, so the
// rand.Rand wrapped around it (Source.rng) draws Float64, NormFloat64,
// ExpFloat64 and Int63 from the same stream.
//
// The state is the last 607 values of the sequence as a ring: vec[i] holds
// x_{k-607} and vec[j] holds x_{k-273} for the next output x_k, which
// overwrites vec[i].
type stream struct {
	vec  [lagLong]uint64
	i, j int
}

// seed sets the state to the one rand.NewSource(seed) starts from. math/rand
// does not export that state, but it fixes it through its outputs: the
// first 607 of them, o_0 … o_606, are read off a fresh source and the
// recurrence is run backwards from them, x_{k-607} = o_k - x_{k-273}. For
// k >= 273 the subtrahend is an output; for k < 273 it is x_{k-273} =
// x_{(k+334)-607}, solved for in the first loop.
func (g *stream) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var out [lagLong]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := lagShort; k < lagLong; k++ {
		g.vec[k] = out[k] - out[k-lagShort]
	}
	for k := range lagShort {
		g.vec[k] = out[k] - g.vec[k+lagLong-lagShort]
	}
	g.i, g.j = 0, lagLong-lagShort
}

// Uint64 returns the next value of the sequence.
//
//hawk:hotpath
func (g *stream) Uint64() uint64 {
	x := g.vec[g.i] + g.vec[g.j]
	g.vec[g.i] = x
	if g.i++; g.i == lagLong {
		g.i = 0
	}
	if g.j++; g.j == lagLong {
		g.j = 0
	}
	return x
}

// Int63 returns the next value with its top bit cleared, as math/rand's
// source does.
func (g *stream) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// Seed restarts the stream at seed, as rand.Source requires.
func (g *stream) Seed(seed int64) { g.seed(seed) }

// draw is rand.Rand.Int31n's divisor state for one n, cached because the
// samplers draw many values below the same n in a row (k of one cluster's
// n nodes): the rejection bound Int31n computes with a division per call,
// and Lemire's reciprocal m = floor((2^64-1)/n) + 1, for which v mod n =
// hi64(lo64(m·v)·n) holds exactly for every 32-bit v and n.
type draw struct {
	n   int
	max uint32
	m   uint64
}

// intn returns rand.Rand.Intn(n) — the same value, consuming the same
// draws — for n >= 1. For n below 2^31 that is Int31n: a 31-bit draw,
// redrawn while above the largest multiple of n it can hold, reduced mod n
// (for a power of two the bound is 2^31-1, so Int31n's single masked draw
// is the same draw). Larger n take rand.Rand's own path.
//
//hawk:hotpath
func (s *Source) intn(n int) int {
	d := &s.draw
	if n != d.n {
		if n > math.MaxInt32 {
			return s.rng.Intn(n)
		}
		*d = draw{n: n, max: math.MaxInt32 - (1<<31)%uint32(n), m: math.MaxUint64/uint64(n) + 1}
	}
	for {
		v := uint32(s.stream.Uint64() << 1 >> 33) // rand.Rand.Int31
		if v <= d.max {
			hi, _ := bits.Mul64(d.m*uint64(v), uint64(n))
			return int(hi)
		}
	}
}
