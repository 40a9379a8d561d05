package randdist

import (
	"math"
	"math/rand"
	"testing"
)

// drawOps replays ops against src and against ref, a math/rand stream of
// the same seed, and fails at the first value on which they differ. An op
// byte's low three bits pick the call; for intn its top three bits halve n
// that many times, so one input moves the cached divisor state between
// several n.
func drawOps(t *testing.T, seed int64, n int, ops []byte) {
	t.Helper()
	src, ref := New(seed), rand.New(rand.NewSource(seed))
	for i, op := range ops {
		var got, want float64
		switch op & 7 {
		case 0, 1, 2:
			m := max(n>>(op>>5), 1)
			got, want = float64(src.intn(m)), float64(ref.Intn(m))
		case 3:
			got, want = src.Float64(), ref.Float64()
		case 4:
			got, want = src.rng.NormFloat64(), ref.NormFloat64()
		case 5:
			got, want = src.rng.ExpFloat64(), ref.ExpFloat64()
		case 6:
			got, want = float64(src.Int63()), float64(ref.Int63())
		case 7:
			m := max(n>>(op>>5), 1)
			got, want = float64(src.Intn(m)), float64(ref.Intn(m))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d, n %d: op %d (%d) gave %v, math/rand %v", seed, n, i, op, got, want)
		}
	}
}

// drawSizes are the n every seed is checked at: 1, powers of two, the
// largest n Int31n takes, odd sizes near it where its rejection bites, and
// n past it, which rand.Rand serves with Int63n.
var drawSizes = []int{1, 2, 3, 7, 64, 1000, 1 << 20, 15000, 170000, 1<<30 + 1, math.MaxInt32, math.MaxInt32 - 2, 1 << 31, 1<<40 + 3}

// New(seed) is rand.New(rand.NewSource(seed)) value for value: negative and
// zero seeds (which math/rand folds) included.
func TestStreamMatchesMathRand(t *testing.T) {
	ops := make([]byte, 400)
	for i := range ops {
		ops[i] = byte(i*37 + i/8)
	}
	for seed := int64(-50); seed < 400; seed++ {
		drawOps(t, seed, drawSizes[int(seed+50)%len(drawSizes)], ops)
	}
	for _, seed := range []int64{math.MinInt64, math.MaxInt64, 1<<31 - 1, 89482311} {
		drawOps(t, seed, 1000, ops)
	}
}

// FuzzDrawVsMathRand holds the samplers' draw and the wrapped rand.Rand's
// methods to math/rand's stream over seed, n and call order.
func FuzzDrawVsMathRand(f *testing.F) {
	for i, n := range drawSizes {
		f.Add(int64(i-3), int64(n), []byte{0, 0, 0, 3, 0, 0x20, 0x40, 4, 5, 6, 7, 0xe0, 0, 1, 2})
	}
	f.Fuzz(func(t *testing.T, seed, n int64, ops []byte) {
		if n <= 0 || len(ops) > 1<<12 {
			return
		}
		drawOps(t, seed, int(n), ops)
	})
}
