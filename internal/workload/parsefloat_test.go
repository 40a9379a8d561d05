package workload

import (
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// sameAsStrconv fails t unless parseFloat(s) is strconv.ParseFloat(s, 64):
// the same bits, the sign of zero and NaN's payload included, and the same
// error text.
func sameAsStrconv(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseFloat([]byte(s))
	want, wantErr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) || (gotErr == nil) != (wantErr == nil) ||
		gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv: %v (%#x), %v",
			s, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
	}
}

// parseFloatEdges are FuzzParseFloat's seeds: halfway and near-halfway
// values, where Eisel–Lemire must bail out or decide exactly; the ends of
// float64's range and past them; the widest mantissas; and spellings strconv
// accepts or refuses that the scan must hand to it.
var parseFloatEdges = []string{
	"9007199254740993", "9007199254740992", "9007199254740995",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "7.2057594037927933e16",
	"5e-324", "4.9406564584124654e-324", "1e-400", "1e309", "1.7976931348623157e308", "1.7976931348623159e308",
	"12345678901234567890", "1234567890123456789", "9999999999999999999", "18446744073709551615",
	"0.1", "18.123456789012345", "2.3e-05", "1e-7", "123456.789e-3", "1e22", "1e23", "9007199254740991e22",
	"1e-64", "1e63", "1e-65", "1e64", "0e999999", "00012", "0.000123", "00.5", "1E5", "1e+05", "1e-05",
	".", "1.", ".5", "1e", "1e+", "+1", "-0", "-1.5", "0x1p3", "1_0", "Inf", "+Inf", "NaN", "nan", "",
	"1..2", "1e5.", "e5", "1ee5", " 1", "1 ", "0.", "0", "1,5",
}

// FuzzParseFloat holds parseFloat to strconv.ParseFloat on any bytes; under
// plain go test it checks parseFloatEdges.
func FuzzParseFloat(f *testing.F) {
	for _, s := range parseFloatEdges {
		f.Add(s)
	}
	f.Fuzz(sameAsStrconv)
}

// The differential sweep: 10⁶ strings, about a second, in the spellings a
// trace holds and the ones around them — 'g'/-1 of random bit patterns and
// of trace-like magnitudes, 'e' and 'f' at random precisions, and random
// digit strings with a random point and exponent.
func TestParseFloatMatchesStrconv(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewPCG(1, 40))
	buf := make([]byte, 0, 64)
	for i := range n {
		var x float64
		if i%2 == 0 {
			x = math.Float64frombits(rng.Uint64() &^ (1 << 63))
		} else {
			x = rng.ExpFloat64() * math.Pow(10, float64(rng.IntN(24)-8))
		}
		switch i % 5 {
		case 0, 1:
			buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		case 2:
			buf = strconv.AppendFloat(buf[:0], x, 'e', rng.IntN(20), 64)
		case 3:
			buf = strconv.AppendFloat(buf[:0], x, 'f', rng.IntN(20), 64)
		default:
			buf = randomDecimal(buf[:0], rng)
		}
		s := string(buf)
		got, gotErr := parseFloat(buf)
		want, wantErr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv: %v, %v", s, got, gotErr, want, wantErr)
		}
	}
}

// randomDecimal appends 1–21 random digits, a point somewhere in them or
// none, and an exponent or none.
func randomDecimal(b []byte, rng *rand.Rand) []byte {
	nd := 1 + rng.IntN(21)
	dot := rng.IntN(nd + 2)
	for k := range nd {
		if k == dot {
			b = append(b, '.')
		}
		b = append(b, byte('0'+rng.IntN(10)))
	}
	if rng.IntN(2) == 0 {
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(rng.IntN(80)-40), 10)
	}
	return b
}

// A number as a trace spells it is parsed without allocating.
func TestParseFloatAllocatesNothing(t *testing.T) {
	for _, s := range []string{"18.123456789012345", "0", "1234.5", "2.2250738585072011e-8", "7.2057594037927933e16"} {
		b := []byte(s)
		if allocs := testing.AllocsPerRun(100, func() { parseFloat(b) }); allocs != 0 {
			t.Errorf("parseFloat(%q): %v allocations, want 0", s, allocs)
		}
	}
}

// Every row of pow10Mantissas is floor(10^e·2^k) with k = 127 -
// (217706·e>>16), and that floor has exactly 128 bits, which pins the
// mantissa and the binary exponent eiselLemire64 implies for it.
func TestPow10TableIsExact(t *testing.T) {
	if len(pow10Mantissas) != pow10MaxExp10-pow10MinExp10+1 {
		t.Fatalf("%d rows for 1e%d…1e%d", len(pow10Mantissas), pow10MinExp10, pow10MaxExp10)
	}
	ten := big.NewInt(10)
	for e := pow10MinExp10; e <= pow10MaxExp10; e++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if e >= 0 {
			num.Exp(ten, big.NewInt(int64(e)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-e)), nil)
		}
		if k := 127 - (217706 * e >> 16); k >= 0 {
			num.Lsh(num, uint(k))
		} else {
			den.Lsh(den, uint(-k))
		}
		q := num.Quo(num, den)
		if q.BitLen() != 128 {
			t.Fatalf("1e%d: floor has %d bits, want 128", e, q.BitLen())
		}
		lo := new(big.Int).And(q, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := q.Rsh(q, 64).Uint64()
		if row := pow10Mantissas[e-pow10MinExp10]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: row {%#x, %#x}, want {%#x, %#x}", e, row[0], row[1], lo, hi)
		}
	}
}
