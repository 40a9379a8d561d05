package workload

import (
	"math"
	"math/bits"
	"strconv"
)

// AppendFloat appends what strconv.AppendFloat(dst, f, format, -1, 64)
// appends, for format 'e', 'f' or 'g': the shortest decimal that reads back
// as f, the closest to f of those, spelled as strconv spells it. It writes
// every number of a trace record (appendJobRecord) and of the per-job
// reports (package policy's CSV and JSON writers).
//
// A normal f that is an integer below 2⁵³ takes its digits from the
// significand; any other normal f whose decimal exponent lies within
// pow10Mantissas takes them from Schubfach (shortestDecimal). Everything else
// — zero, subnormals, Inf, NaN, exponents outside the table, other formats —
// goes to strconv itself, so the bytes are strconv's by construction there;
// FuzzAppendFloat and TestAppendFloatMatchesStrconv hold the rest to it.
// It allocates only when dst lacks the capacity.
//
//hawk:hotpath
func AppendFloat(dst []byte, f float64, format byte) []byte {
	u := math.Float64bits(f)
	be := int(u>>52) & 0x7FF
	if be == 0 || be == 0x7FF || format != 'e' && format != 'f' && format != 'g' {
		return strconv.AppendFloat(dst, f, format, -1, 64)
	}
	c, q := u&(1<<52-1)|1<<52, be-1075 // |f| = c·2^q
	var d uint64
	var k int
	if -52 <= q && q <= 0 && bits.TrailingZeros64(c) >= -q {
		// An integer below 2⁵³: its neighbours are at most 1 away, so no
		// decimal with fewer digits lies within half a gap of it.
		d = c >> -q
	} else {
		var ok bool
		if d, k, ok = shortestDecimal(c, q); !ok {
			return strconv.AppendFloat(dst, f, format, -1, 64)
		}
	}
	for d%10 == 0 {
		d /= 10
		k++
	}
	if u>>63 != 0 {
		dst = append(dst, '-')
	}

	// The digits of d, two at a time from the right; d < 10¹⁷ (see
	// shortestDecimal), so one division by 10⁸ leaves two uint32 halves,
	// and the low one splits into 4-digit halves, whose pairs are
	// independent of one another.
	var buf [17]byte
	i := len(buf)
	if d >= 1e8 {
		lo := uint32(d % 1e8)
		d /= 1e8
		a, b := lo/1e4, lo%1e4
		putPair(buf[9:], a/100)
		putPair(buf[11:], a%100)
		putPair(buf[13:], b/100)
		putPair(buf[15:], b%100)
		i = 9
	}
	hi := uint32(d)
	for hi >= 100 {
		i -= 2
		putPair(buf[i:], hi%100)
		hi /= 100
	}
	if hi >= 10 {
		i -= 2
		putPair(buf[i:], hi)
	} else {
		i--
		buf[i] = byte('0' + hi)
	}
	digits := buf[i:]
	nd := len(digits)
	dp := nd + k // f = 0.digits × 10^dp

	// strconv's spelling: 'g' at shortest precision is %e when the exponent
	// of the first digit is below -4 or at least 6, else %f.
	if x := dp - 1; format == 'e' || format == 'g' && (x < -4 || x >= 6) {
		dst = append(dst, digits[0])
		if nd > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		dst = append(dst, 'e', '+')
		if x < 0 {
			dst[len(dst)-1] = '-'
			x = -x
		}
		// Two digits: the table's range keeps x within -48…80.
		dst = append(dst, digitPairs[2*x], digitPairs[2*x+1])
		return dst
	}
	switch {
	case dp <= 0:
		dst = append(dst, '0', '.')
		for ; dp < 0; dp++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	case dp < nd:
		dst = append(dst, digits[:dp]...)
		dst = append(dst, '.')
		dst = append(dst, digits[dp:]...)
	default:
		dst = append(dst, digits...)
		for ; dp > nd; dp-- {
			dst = append(dst, '0')
		}
	}
	return dst
}

// putPair writes the two digits of n < 100 to b[0] and b[1].
func putPair(b []byte, n uint32) {
	b[0], b[1] = digitPairs[2*n], digitPairs[2*n+1]
}

// digitPairs holds "00" through "99", the two digits of n at 2n.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortestDecimal returns d and k such that d·10^k is the decimal strconv's
// shortest formatting picks for the normal value v = c·2^q (2⁵² ≤ c < 2⁵³):
// the fewest significant digits of any decimal inside v's rounding interval,
// and of those the closest to v, a tie going to the even one. ok is false
// when the power of ten it needs lies outside pow10Mantissas, which holds for
// |v| below about 5·10⁻⁴⁸ or from about 5·10⁸⁰ up.
//
// It is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
// 2020). Let R be the interval of reals that round to v: its ends are the
// midpoints to v's neighbours, (4c∓2)·2^(q-2), or (4c-1)·2^(q-2) below v when
// c = 2⁵² and the gap below is half the gap above. Both ends belong to R when
// c is even (round half to even reads them back as v), neither when c is odd.
// Choose k as the largest integer with 10^k ≤ the width of R: scaled by
// 10^-k, R is 1 to 10 wide, so it holds an integer, and at most one multiple
// of ten. A multiple of ten in R is the unique decimal in R with fewer digits
// than ⌊v·10^-k⌋ has (fewer still only with trailing zeros); otherwise the
// answer is s = ⌊v·10^-k⌋ or s+1, whichever lies in R, or the closer if both
// do.
//
// Every comparison is between an interval end or v, scaled by 4·10^-k, and
// four times an integer. roundToOdd computes that scaled value from g·x,
// where x is the end (in units of 2^(q-2)) shifted left by h and
// g/2^(125-⌊-k·log₂10⌋) is 10^-k rounded up to 126 bits (pow10G), and
// rounds it to odd: its lowest bit set when anything nonzero was dropped.
// Rounding to odd keeps an integer exact and leaves anything else strictly
// between the two integers around it, so the rounded value compares with an
// even integer as the real one does.
func shortestDecimal(c uint64, q int) (d uint64, k int, ok bool) {
	// open is 1 when c is odd and R excludes its ends: the end must then be
	// strictly inside, one unit of the rounded product beyond the integer.
	open := c & 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	if c == 1<<52 {
		cbl = cb - 1
	}
	k = widthExp10(c, q)
	if -k < pow10MinExp10 || -k > pow10MaxExp10 {
		return 0, 0, false
	}
	g1, g0 := pow10G(-k)
	h := q + (217706 * -k >> 16) + 2 // 2…5: the shifted ends stay below 2⁶⁰
	vb := roundToOdd(g1, g0, cb<<h)
	vbl := roundToOdd(g1, g0, cbl<<h)
	vbr := roundToOdd(g1, g0, cbr<<h)

	// One digit fewer: the multiples of ten around v, at most one in R.
	// s < 10·2⁵³ < 10¹⁷, and so is every candidate.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	spIn := vbl+open <= sp10<<2
	tpIn := tp10<<2+open <= vbr
	if spIn != tpIn {
		if spIn {
			return sp10, k, true
		}
		return tp10, k, true
	}
	t := s + 1
	sIn := vbl+open <= s<<2
	tIn := t<<2+open <= vbr
	if sIn != tIn {
		if sIn {
			return s, k, true
		}
		return t, k, true
	}
	// Both: the closer, and at a tie (v·10^-k is s + ½) the even one.
	if mid := s<<2 + 2; vb < mid || vb == mid && s&1 == 0 {
		return s, k, true
	}
	return t, k, true
}

// widthExp10 returns ⌊log₁₀ w⌋ for the width w of c·2^q's rounding interval:
// 2^q, or ¾·2^q when c = 2⁵² and the gap below is half the gap above (the
// smallest normal's gap below is not, but its power of ten is far outside
// pow10Mantissas). The constants are log₁₀2 and log₁₀(4/3) scaled by 2⁴¹.
func widthExp10(c uint64, q int) int {
	if c == 1<<52 {
		return (q*661971961083 - 274743187321) >> 41
	}
	return q * 661971961083 >> 41
}

// pow10G returns g = ⌊β⌋ + 1 for β = 10^e·2^(125-⌊e·log₂10⌋), 2¹²⁵ ≤ β < 2¹²⁶,
// as its high and low 63 bits: g = g1·2⁶³ + g0. pow10Mantissas' row for 10^e
// is ⌊4β⌋, so ⌊β⌋ is the row shifted right by two. TestPow10GIsExact
// recomputes g for every row.
func pow10G(e int) (g1, g0 uint64) {
	row := &pow10Mantissas[e-pow10MinExp10]
	g1 = row[1] >> 1
	g0 = (row[1]&1<<62 | row[0]>>2) + 1
	g1 += g0 >> 63
	return g1, g0 &^ (1 << 63)
}

// roundToOdd returns T = ⌊g·x/2⁶⁴⌋ divided by 2⁶³, rounded to odd: ⌊T/2⁶³⌋
// with its lowest bit set when the division leaves a remainder, for
// g = g1·2⁶³ + g0 (g1, g0 < 2⁶³) and x < 2⁶⁰.
//
// The product's low 64 bits are dropped before rounding. g exceeds β by at
// most 1, so g·x exceeds β·x by less than x < 2⁶⁴: where β·x/2¹²⁷ is an
// integer — an interval end or v exactly on a decimal — the dropped bits hold
// all of the excess and the result is that integer, unmarked. Where it is
// not, it lies far enough from every integer (the paper bounds how close
// these products come to one) that neither the excess nor the dropped bits
// reach one; FuzzAppendFloat and TestAppendFloatMatchesStrconv hold the
// outcome to strconv.
//
// g·x = y1·2¹²⁷ + y0·2⁶³ + x1·2⁶⁴ + x0 for the 128-bit products g1·x and
// g0·x, so T = y1·2⁶³ + z for z = x1 + ⌊y0/2⌋ + the carry out of the low
// word; x1 < 2⁶³ keeps z within 64 bits.
func roundToOdd(g1, g0, x uint64) uint64 {
	y1, y0 := bits.Mul64(g1, x)
	x1, x0 := bits.Mul64(g0, x)
	_, carry := bits.Add64(x0, y0<<63, 0)
	z := x1 + y0>>1 + carry
	rem := z << 1
	return y1 + z>>63 | (rem|-rem)>>63
}
