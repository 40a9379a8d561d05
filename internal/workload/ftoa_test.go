package workload

import (
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// sameFtoaAsStrconv fails t unless AppendFloat writes strconv.AppendFloat's
// bytes for f at shortest precision in each of 'e', 'f' and 'g', appending to
// a non-empty buffer.
func sameFtoaAsStrconv(t *testing.T, buf []byte, f float64) []byte {
	t.Helper()
	for _, format := range []byte{'e', 'f', 'g'} {
		buf = append(buf[:0], '#')
		buf = AppendFloat(buf, f, format)
		want := strconv.AppendFloat([]byte{'#'}, f, format, -1, 64)
		if string(buf) != string(want) {
			t.Fatalf("AppendFloat(%#x, %q) = %q; strconv: %q", math.Float64bits(f), format, buf[1:], want[1:])
		}
	}
	return buf
}

// tableEdgeBits are normal values at the ends of the table's reach: at
// every binary exponent q, the smallest significand (whose k comes from the
// uneven gap below it) and the largest, where k puts 10^-k in the first or
// last row of pow10Mantissas or just outside it.
func tableEdgeBits() []uint64 {
	var out []uint64
	for q := -1074; q <= 971; q++ {
		for _, c := range []uint64{1 << 52, 1<<53 - 1} {
			switch -widthExp10(c, q) {
			case pow10MinExp10 - 1, pow10MinExp10, pow10MaxExp10, pow10MaxExp10 + 1:
				out = append(out, uint64(q+1075)<<52|c&(1<<52-1))
			}
		}
	}
	return out
}

// ftoaEdges are FuzzAppendFloat's seeds beside tableEdgeBits.
var ftoaEdges = []float64{
	// Subnormals, which strconv formats: the smallest, and the even ones up
	// to 1e-322 (a two-digit minimum would spell them 4.9e-324 … 9.9e-323).
	5e-324, 1e-323, 2e-323, 3e-323, 4e-323, 5e-323, 6e-323, 7e-323, 8e-323, 9e-323, 1e-322,
	// The JSON writer's switch between 'f' and 'e'.
	math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e21, 0), 1e21,
	// The exact-integer shortcut's end and the values past it.
	1<<53 - 1, 1 << 53, 1<<53 + 2,
	math.Copysign(0, -1), math.MaxFloat64,
	// A tie: 10·v is s + ½ with no multiple of ten in reach, so v's
	// digits are the even one of s and s+1.
	1<<50 + 0.25,
	// 1e23 is the midpoint of these two: the lower one's significand is
	// even and its interval holds it; the upper one's is odd and does not.
	1e23, math.Nextafter(1e23, 1e24),
}

// FuzzAppendFloat holds AppendFloat to strconv.AppendFloat on any 64 bits;
// under plain go test it checks ftoaEdges and tableEdgeBits.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range ftoaEdges {
		f.Add(math.Float64bits(x))
	}
	for _, u := range tableEdgeBits() {
		f.Add(u)
	}
	var buf []byte
	f.Fuzz(func(t *testing.T, u uint64) {
		buf = sameFtoaAsStrconv(t, buf, math.Float64frombits(u))
	})
}

// The differential sweep, about 2.5 million values in 'e', 'f' and 'g' —
// a few seconds: random bit patterns; random short decimals from 10⁻³⁰ to
// 10³⁰; the first and last 64 significands of every binary exponent; each
// power of ten a float64 reaches and its two neighbours; every subnormal
// below 10⁵ ulps; and every number of a 4 000-job Google trace.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	var buf []byte
	check := func(f float64) { buf = sameFtoaAsStrconv(t, buf, f) }
	rng := rand.New(rand.NewPCG(4, 42))
	for range n {
		check(math.Float64frombits(rng.Uint64()))
	}
	for range n {
		s := strconv.AppendUint(buf[:0], rng.Uint64N(1_000_000_000_000_000_000)>>rng.UintN(60), 10)
		s = append(s, 'e')
		s = strconv.AppendInt(s, int64(rng.IntN(61)-30), 10)
		f, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			t.Fatal(err)
		}
		check(f)
	}
	for be := uint64(1); be < 0x7FF; be++ {
		for m := uint64(0); m < 64; m++ {
			check(math.Float64frombits(be<<52 | m))
			check(math.Float64frombits(be<<52 | (1<<52 - 1 - m)))
		}
	}
	for p := -323; p <= 308; p++ {
		f := math.Pow10(p)
		check(f)
		check(math.Nextafter(f, 0))
		check(math.Nextafter(f, math.Inf(1)))
	}
	for u := uint64(0); u < 100_000; u++ {
		check(math.Float64frombits(u))
	}
	jobs := 4000
	if testing.Short() {
		jobs = 200
	}
	for _, j := range Generate(Google(), GenConfig{NumJobs: jobs, MeanInterArrival: 2.3, Seed: 4}).Jobs {
		check(j.SubmitTime)
		for _, d := range j.Durations {
			check(d)
		}
	}
}

// pow10G is ⌊β⌋ + 1 for β = 10^e·2^(125-⌊e·log₂10⌋), which lies in
// [2¹²⁵, 2¹²⁶), for every row; and widthExp10 is ⌊log₁₀⌋ of the interval
// widths it stands for, 2^q and ¾·2^q, at every normal binary exponent q.
func TestPow10GIsExact(t *testing.T) {
	ten, two := big.NewInt(10), big.NewInt(2)
	pow := func(b *big.Int, e int) *big.Rat { // b^e as a fraction
		r := new(big.Rat).SetInt(new(big.Int).Exp(b, big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	mask63 := new(big.Int).SetUint64(1<<63 - 1)
	for e := pow10MinExp10; e <= pow10MaxExp10; e++ {
		beta := new(big.Rat).Mul(pow(ten, e), pow(two, 125-(217706*e>>16)))
		g := new(big.Int).Quo(beta.Num(), beta.Denom())
		if g.BitLen() != 126 {
			t.Fatalf("1e%d: ⌊β⌋ has %d bits, want 126", e, g.BitLen())
		}
		g.Add(g, big.NewInt(1))
		want0 := new(big.Int).And(g, mask63).Uint64()
		want1 := g.Rsh(g, 63).Uint64()
		if g1, g0 := pow10G(e); g1 != want1 || g0 != want0 {
			t.Errorf("1e%d: g1, g0 = %#x, %#x, want %#x, %#x", e, g1, g0, want1, want0)
		}
	}
	three4 := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		for _, c := range []struct {
			k     int
			width *big.Rat
		}{
			{widthExp10(1<<53-1, q), pow(two, q)},
			{widthExp10(1<<52, q), new(big.Rat).Mul(three4, pow(two, q))},
		} {
			if c.width.Cmp(pow(ten, c.k)) < 0 || c.width.Cmp(pow(ten, c.k+1)) >= 0 {
				t.Fatalf("q=%d: k=%d is not ⌊log₁₀ %s⌋", q, c.k, c.width.FloatString(3))
			}
		}
	}
}
