package workload

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

// gzipReader inflates a gzip file (RFC 1952 framing around RFC 1951 deflate
// data) as it is read, in place of compress/gzip's reader on the trace path.
// compress/flate pulls every input byte through an io.ByteReader and decodes
// one symbol per table lookup; here the input sits in the reader's own 16 KiB
// buffer and is taken 8 bytes at a time into a 64-bit bit buffer, and one
// lookup in the 11-bit literal/length table yields up to two literals — a
// Huffman-only trace's digits and separators have codes of 3 to 6 bits. All
// buffers and tables are part of the reader and are reused from block to
// block and member to member, so after open it allocates nothing.
//
// It accepts exactly the streams compress/gzip accepts and yields the same
// bytes, up to the same point when a stream is broken: every header flag,
// concatenated members, a trailer whose CRC-32 or ISIZE disagrees
// (gzip.ErrChecksum), a bad header (gzip.ErrHeader), a truncation
// (io.ErrUnexpectedEOF, after every symbol whose code arrived whole) and
// corrupt deflate data (flate.CorruptInputError). FuzzGzipReader holds it to
// compress/gzip on arbitrary bytes. Only a corrupt-data error's offset is
// this reader's own: it is the file offset just past the byte the reader
// had reached (see corrupt), where compress/flate counts the bytes it has
// pulled from the member's deflate data. It never consumes input past a member's
// trailer: the whole bytes left in the bit buffer when a member's deflate
// data ends go back to the input buffer.
type gzipReader struct {
	src   io.Reader
	in    [inflateInputSize]byte
	ip    int   // in[ip:iend] is input not yet taken into bits
	iend  int   //
	inOff int64 // file offset of in[0], for corrupt's offset
	eof   bool  // src has returned io.EOF
	rerr  error // an error from src other than io.EOF

	// bits holds nbits input bits, the next one lowest. Above them it may
	// hold copies of the bytes at in[ip:], which a refill ORs in again.
	bits  uint64
	nbits uint

	// win[:ringSize] is a ring holding the last ringSize bytes of output,
	// the history a match copies from, up to the write index wi. A decode
	// may write up to ringSlop bytes past the ring's end (the spare byte of
	// a literal entry, a match) before advance moves them to its front.
	win    [ringSize + ringSlop]byte
	wi     int
	unread int    // the last unread bytes before wi are decoded and not read
	uncrc  int    // the last uncrc bytes before wi are not yet in crc
	crc    uint32 // CRC-32 of the member's output
	memOut int64  // bytes of the member's output, ISIZE modulo 2^32

	state  int
	final  bool  // the current block is the member's last
	stored int   // bytes left in the current stored block
	err    error // returned by Read once the unread output is read

	lit     [litTableSize]uint32 // literal/length table
	dist    [distTableSize]uint32
	clen    [1 << clenRootBits]uint32 // code-length code table
	litMin  uint                      // bits a literal/length lookup waits for
	distMin uint                      //
	lengths [288 + 32]uint8
	buf     [10]byte // header and trailer bytes
}

const (
	// The reader is allocated on every open of a ".gz" file, so its input
	// buffer is small: 16 KiB is one read call per 16 KiB of the file.
	inflateInputSize = 1 << 14
	maxMatch         = 258
	ringSlop         = maxMatch + 6
	// The ring holds the 32 KiB a match reaches back plus 1 KiB, and a step
	// decodes at most stepOutput bytes: a write up to ringSlop bytes ahead
	// of wi replaces bytes ringSize back, older than any match reaches and
	// than the step's unread output.
	ringSize   = 1<<15 + 1<<10
	stepOutput = ringSize - ringSlop

	maxCodeBits  = 15
	litRootBits  = 11
	distRootBits = 10
	clenRootBits = 7
	// A table is a root of 2^rootBits entries followed by sub-tables of
	// 2^(longest code - rootBits) entries for the root prefixes of longer
	// codes. A complete code puts at least two codes under each such
	// prefix, so 288 literal/length codes need at most 144 sub-tables of at
	// most 2^(15-11) entries, and 30 distance codes 15 of 2^(15-10).
	litTableSize  = 1<<litRootBits + 144<<(maxCodeBits-litRootBits)
	distTableSize = 1<<distRootBits + 15<<(maxCodeBits-distRootBits)
)

// The states of a gzipReader between steps.
const (
	stateBlock   = iota // at a block header
	stateStored         // in a stored block
	stateHuffman        // in a fixed- or dynamic-code block
	stateTrailer        // past the member's last block
)

// A table entry. Bits 0-3 hold the bits the entry consumes (0: no code maps
// there, which is corrupt input) and bits 4-12 the flags below. A literal
// entry holds its literal in bits 16-23, and with entTwo a second one in bits
// 24-31 and the first's code length in bits 8-11. A length or distance entry
// (no flag) holds its base in bits 16-31 and its count of extra bits in bits
// 8-11. A link (entSub) holds its sub-table's offset in bits 16-31 and its
// index width in bits 8-11.
const (
	entLit = 1 << 4
	entTwo = 1 << 5
	entSub = 1 << 6
	entEOB = 1 << 7
	entBad = 1 << 12 // a symbol the code defines but deflate forbids
)

// litEntries, distEntries and clenEntries are the entry of each symbol
// without its code length.
var (
	litEntries = func() (e [288]uint32) {
		for v := range e {
			var base, extra int
			switch {
			case v < 256:
				e[v] = entLit | uint32(v)<<16
				continue
			case v == 256:
				e[v] = entEOB
				continue
			case v < 265:
				base, extra = v-(257-3), 0
			case v < 269:
				base, extra = v*2-(265*2-11), 1
			case v < 273:
				base, extra = v*4-(269*4-19), 2
			case v < 277:
				base, extra = v*8-(273*8-35), 3
			case v < 281:
				base, extra = v*16-(277*16-67), 4
			case v < 285:
				base, extra = v*32-(281*32-131), 5
			case v == 285:
				base, extra = maxMatch, 0
			default:
				e[v] = entBad
				continue
			}
			e[v] = uint32(base)<<16 | uint32(extra)<<8
		}
		return e
	}()
	distEntries = func() (e [32]uint32) {
		for v := range e {
			switch {
			case v < 4:
				e[v] = uint32(v+1) << 16
			case v < 30:
				extra := uint(v-2) >> 1
				e[v] = uint32(1<<(extra+1)+1+(v&1)<<extra)<<16 | uint32(extra)<<8
			default:
				e[v] = entBad
			}
		}
		return e
	}()
	clenEntries = func() (e [19]uint32) {
		for v := range e {
			e[v] = uint32(v) << 16
		}
		return e
	}()
)

// codeOrder is the order of the code-length code's lengths (RFC 1951 3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// newGzipReader reads the first member's header off src. An empty src is
// io.EOF, as for gzip.NewReader.
func newGzipReader(src io.Reader) (*gzipReader, error) {
	z := &gzipReader{src: src}
	if err := z.readHeader(); err != nil {
		return nil, err
	}
	return z, nil
}

// Read hands out decoded bytes, decoding more when none are left. The error
// that ends the stream — io.EOF after the last member — comes once every
// byte decoded before it has been read.
func (z *gzipReader) Read(p []byte) (int, error) {
	for z.unread == 0 {
		if z.err != nil {
			return 0, z.err
		}
		z.step()
	}
	r, end := z.wi-z.unread, z.wi
	if r < 0 {
		r, end = r+ringSize, ringSize
	}
	n := copy(p, z.win[r:end])
	z.unread -= n
	return n, nil
}

// step decodes up to stepOutput bytes, or to where the stream ends or
// fails. It is called with everything decoded already read.
func (z *gzipReader) step() {
	for z.err == nil && z.unread < stepOutput {
		switch z.state {
		case stateBlock:
			z.nextBlock()
		case stateStored:
			z.storedBlock()
		case stateHuffman:
			z.huffmanBlock()
		case stateTrailer:
			z.trailer()
		}
	}
	z.updateCRC()
}

// advance accounts for the output decoded up to write index wi and moves
// what went past the ring's end to its front.
func (z *gzipReader) advance(wi int) {
	n := wi - z.wi
	z.unread += n
	z.uncrc += n
	z.memOut += int64(n)
	if wi >= ringSize {
		wi = copy(z.win[:], z.win[ringSize:wi])
	}
	z.wi = wi
}

// updateCRC adds the output not yet in the CRC to it.
func (z *gzipReader) updateCRC() {
	start := z.wi - z.uncrc
	if start < 0 {
		z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start+ringSize:ringSize])
		start = 0
	}
	z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start:z.wi])
	z.uncrc = 0
}

// fill moves the unread input to the front of the buffer, whole bytes held
// in bits included, and reads src once after it.
func (z *gzipReader) fill() {
	z.putBack()
	n := copy(z.in[:], z.in[z.ip:z.iend])
	z.inOff += int64(z.ip)
	z.ip, z.iend = 0, n
	m, err := z.src.Read(z.in[n:])
	z.iend += m
	if err == io.EOF {
		z.eof = true
	} else if err != nil {
		z.rerr = err
	}
}

// putBack returns the whole bytes in bits to the input buffer, keeping the
// bits left of a partly consumed byte.
func (z *gzipReader) putBack() {
	z.ip -= int(z.nbits >> 3)
	z.nbits &= 7
	z.bits &= 1<<z.nbits - 1
}

// alignInput drops the bits left of a partly consumed byte and returns the
// whole ones to the input buffer, where the next byte-aligned field starts.
func (z *gzipReader) alignInput() {
	z.putBack()
	z.bits, z.nbits = 0, 0
}

// inputErr is why no more input can come: io.ErrUnexpectedEOF at the end of
// src, or src's error.
func (z *gzipReader) inputErr() error {
	if z.rerr != nil {
		return z.rerr
	}
	return io.ErrUnexpectedEOF
}

// more makes sure in[ip:iend] is not empty, returning inputErr when the
// input has ended.
func (z *gzipReader) more() error {
	for z.ip == z.iend {
		if z.eof || z.rerr != nil {
			return z.inputErr()
		}
		z.fill()
	}
	return nil
}

// pull takes input bytes into bits one at a time until it holds n bits,
// returning inputErr when the input ends first.
func (z *gzipReader) pull(n uint) error {
	for z.nbits < n {
		if err := z.more(); err != nil {
			return err
		}
		z.bits |= uint64(z.in[z.ip]) << z.nbits
		z.ip++
		z.nbits += 8
	}
	return nil
}

// getBits consumes n bits.
func (z *gzipReader) getBits(n uint) (uint32, error) {
	if err := z.pull(n); err != nil {
		return 0, err
	}
	v := uint32(z.bits & (1<<n - 1))
	z.bits >>= n
	z.nbits -= n
	return v, nil
}

// sym decodes one symbol through table t the way compress/flate's huffSym
// does near the end of the input: it waits for minBits bits, then for the
// whole code, and fails with inputErr when the input ends first. An entry
// for two literals yields the first alone.
func (z *gzipReader) sym(t []uint32, root, minBits uint) (uint32, error) {
	err := z.pull(maxCodeBits)
	if z.nbits < minBits {
		return 0, err
	}
	b := z.bits & (1<<z.nbits - 1) // zeros past the end of the input
	e := t[b&(1<<root-1)]
	if e&entSub != 0 {
		e = t[e>>16+uint32(b>>root)&(1<<(e>>8&15)-1)]
	}
	n := uint(e & 15)
	if e&entTwo != 0 {
		n = uint(e >> 8 & 15)
		e = entLit | e&0xff0000 | uint32(n)
	}
	if n > z.nbits {
		return 0, err
	}
	if n == 0 {
		return 0, z.corrupt()
	}
	z.bits >>= n
	z.nbits -= n
	return e, nil
}

// corrupt is the error for deflate data no encoder writes. Its offset is the
// file offset just past the last byte the reader has taken bits from (the
// whole bytes held in bits are not taken), so the data it refused lies
// before it. compress/flate's offset for the same data differs: it counts
// from the member's deflate data and includes every byte it has pulled.
func (z *gzipReader) corrupt() error {
	return flate.CorruptInputError(z.inOff + int64(z.ip) - int64(z.nbits>>3))
}

// readFull reads len(p) bytes of byte-aligned input, with io.ReadFull's
// errors: io.EOF when the input ends before the first, io.ErrUnexpectedEOF
// after it.
func (z *gzipReader) readFull(p []byte) error {
	n := 0
	for n < len(p) {
		if err := z.more(); err != nil {
			if n == 0 && z.rerr == nil {
				return io.EOF
			}
			return err
		}
		k := copy(p[n:], z.in[z.ip:z.iend])
		z.ip += k
		n += k
	}
	return nil
}

// noEOF turns a clean end of input inside a structure into a truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// The gzip header flags (RFC 1952 2.3.1); FTEXT needs nothing.
const (
	gzipFlagHdrCRC  = 1 << 1
	gzipFlagExtra   = 1 << 2
	gzipFlagName    = 1 << 3
	gzipFlagComment = 1 << 4
)

// readHeader reads a member's header and starts its deflate data. It checks
// what compress/gzip checks: the magic and method bytes and, with FHCRC,
// the header's CRC-16; a file name or comment of 512 bytes or more is a bad
// header there too.
func (z *gzipReader) readHeader() error {
	h := z.buf[:10]
	if err := z.readFull(h); err != nil {
		return err
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return gzip.ErrHeader
	}
	flg := h[3]
	digest := crc32.Update(0, crc32.IEEETable, h)
	if flg&gzipFlagExtra != 0 {
		if err := z.readFull(z.buf[:2]); err != nil {
			return noEOF(err)
		}
		digest = crc32.Update(digest, crc32.IEEETable, z.buf[:2])
		for n := int(binary.LittleEndian.Uint16(z.buf[:2])); n > 0; {
			if err := z.more(); err != nil {
				return err
			}
			k := min(n, z.iend-z.ip)
			digest = crc32.Update(digest, crc32.IEEETable, z.in[z.ip:z.ip+k])
			z.ip += k
			n -= k
		}
	}
	for _, f := range [2]byte{gzipFlagName, gzipFlagComment} {
		if flg&f == 0 {
			continue
		}
		var err error
		if digest, err = z.skipString(digest); err != nil {
			return noEOF(err)
		}
	}
	if flg&gzipFlagHdrCRC != 0 {
		if err := z.readFull(z.buf[:2]); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(z.buf[:2]) != uint16(digest) {
			return gzip.ErrHeader
		}
	}
	z.state, z.final = stateBlock, false
	z.crc, z.memOut = 0, 0
	return nil
}

// skipString consumes a zero-terminated header string, adding it to the
// header's CRC-32.
func (z *gzipReader) skipString(digest uint32) (uint32, error) {
	tab := crc32.IEEETable
	d := ^digest
	for i := 0; ; i++ {
		if i >= 512 {
			return 0, gzip.ErrHeader
		}
		if err := z.readFull(z.buf[:1]); err != nil {
			return 0, err
		}
		c := z.buf[0]
		d = tab[byte(d)^c] ^ d>>8
		if c == 0 {
			return ^d, nil
		}
	}
}

// trailer checks the member's CRC-32 and ISIZE and reads the next member's
// header; a clean end of input there ends the stream.
func (z *gzipReader) trailer() {
	z.updateCRC()
	t := z.buf[:8]
	if err := z.readFull(t); err != nil {
		z.err = noEOF(err)
		return
	}
	if binary.LittleEndian.Uint32(t) != z.crc || binary.LittleEndian.Uint32(t[4:]) != uint32(z.memOut) {
		z.err = gzip.ErrChecksum
		return
	}
	z.err = z.readHeader()
}

// endBlock moves on from a block that has ended.
func (z *gzipReader) endBlock() {
	if !z.final {
		z.state = stateBlock
		return
	}
	z.alignInput()
	z.state = stateTrailer
}

// nextBlock reads a block header and, for a Huffman block, its code.
func (z *gzipReader) nextBlock() {
	h, err := z.getBits(3)
	if err != nil {
		z.err = err
		return
	}
	z.final = h&1 == 1
	switch h >> 1 {
	case 0:
		z.alignInput()
		if err := z.readFull(z.buf[:4]); err != nil {
			z.err = noEOF(err)
			return
		}
		n := binary.LittleEndian.Uint16(z.buf[:2])
		if binary.LittleEndian.Uint16(z.buf[2:4]) != ^n {
			z.err = z.corrupt()
			return
		}
		z.stored = int(n)
		z.state = stateStored
	case 1:
		z.buildFixed()
		z.state = stateHuffman
	case 2:
		if z.err = z.readDynamic(); z.err == nil {
			z.state = stateHuffman
		}
	default:
		z.err = z.corrupt()
	}
}

// buildFixed loads the fixed code of RFC 1951 3.2.6.
func (z *gzipReader) buildFixed() {
	l := z.lengths[:]
	for i := range 288 {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	for i := range 32 {
		l[288+i] = 5
	}
	buildTable(z.lit[:], litRootBits, l[:288], litEntries[:])
	pairLiterals(&z.lit)
	buildTable(z.dist[:], distRootBits, l[288:], distEntries[:])
	z.litMin, z.distMin = 7, 5
}

// readDynamic reads a dynamic block's code (RFC 1951 3.2.7), rejecting what
// compress/flate rejects, in its order: more than 286 literal/length or 30
// distance codes, a code-length code that is over-subscribed or incomplete,
// a repeat of no previous length or past the last one, and literal/length
// or distance code lengths that over-subscribe or leave a code incomplete
// (one distance code of length 1 and no distance codes at all are allowed).
func (z *gzipReader) readDynamic() error {
	h, err := z.getBits(5 + 5 + 4)
	if err != nil {
		return err
	}
	nlit := int(h&0x1f) + 257
	if nlit > 286 {
		return z.corrupt()
	}
	ndist := int(h>>5&0x1f) + 1
	if ndist > 30 {
		return z.corrupt()
	}
	nclen := int(h>>10) + 4
	var cl [19]uint8
	for _, o := range codeOrder[:nclen] {
		v, err := z.getBits(3)
		if err != nil {
			return err
		}
		cl[o] = uint8(v)
	}
	clMin, ok := buildTable(z.clen[:], clenRootBits, cl[:], clenEntries[:])
	if !ok {
		return z.corrupt()
	}
	l := z.lengths[:nlit+ndist]
	for i := 0; i < len(l); {
		e, err := z.sym(z.clen[:], clenRootBits, clMin)
		if err != nil {
			return err
		}
		x := e >> 16
		if x < 16 {
			l[i] = uint8(x)
			i++
			continue
		}
		var rep int
		var nb uint
		var v uint8
		switch x {
		case 16:
			if i == 0 {
				return z.corrupt()
			}
			rep, nb, v = 3, 2, l[i-1]
		case 17:
			rep, nb = 3, 3
		default:
			rep, nb = 11, 7
		}
		extra, err := z.getBits(nb)
		if err != nil {
			return err
		}
		rep += int(extra)
		if i+rep > len(l) {
			return z.corrupt()
		}
		for ; rep > 0; rep-- {
			l[i] = v
			i++
		}
	}
	litMin, ok := buildTable(z.lit[:], litRootBits, l[:nlit], litEntries[:])
	if !ok {
		return z.corrupt()
	}
	if z.distMin, ok = buildTable(z.dist[:], distRootBits, l[nlit:], distEntries[:]); !ok {
		return z.corrupt()
	}
	pairLiterals(&z.lit)
	// Every block ends in an end-of-block code, so compress/flate waits for
	// that many bits before any literal/length lookup.
	z.litMin = max(litMin, uint(l[256]))
	return nil
}

// buildTable fills t with the decoding table of the canonical code whose
// code lengths are lengths (0: no code), with a root of 2^root entries, and
// returns the shortest code length. It reports false for lengths that
// over-subscribe the code or leave it incomplete, except a single code of
// length 1; lengths with no code at all build a table of no codes.
func buildTable(t []uint32, root uint, lengths []uint8, entries []uint32) (uint, bool) {
	var count [maxCodeBits + 1]int
	var minLen, maxLen uint
	for _, n := range lengths {
		if n == 0 {
			continue
		}
		if minLen == 0 || uint(n) < minLen {
			minLen = uint(n)
		}
		maxLen = max(maxLen, uint(n))
		count[n]++
	}
	clear(t[:1<<root])
	if maxLen == 0 {
		return 0, true
	}
	var next [maxCodeBits + 2]int
	code := 0
	for n := minLen; n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return 0, false
	}
	var subBits uint
	if maxLen > root {
		// The root prefixes of codes longer than root bits are the ones from
		// the first such code's on; each gets a sub-table.
		subBits = maxLen - root
		off := 1 << root
		for p := next[root+1] >> 1; p < 1<<root; p++ {
			t[reverseBits(p, root)] = entSub | uint32(off)<<16 | uint32(subBits)<<8
			off += 1 << subBits
		}
	}
	for s, n := range lengths {
		if n == 0 {
			continue
		}
		c := reverseBits(next[n], uint(n))
		next[n]++
		e := entries[s] | uint32(n)
		if uint(n) <= root {
			for i := c; i < 1<<root; i += 1 << n {
				t[i] = e
			}
			continue
		}
		sub := t[c&(1<<root-1)] >> 16
		for i := c >> root; i < 1<<subBits; i += 1 << (uint(n) - root) {
			t[int(sub)+i] = e
		}
	}
	return minLen, true
}

// reverseBits reverses the low n bits of c: codes are defined most
// significant bit first and arrive least significant bit first.
func reverseBits(c int, n uint) int {
	return int(bits.Reverse16(uint16(c)) >> (16 - n))
}

// pairLiterals gives every root entry of a literal whose code leaves room
// for the next literal's code within the root's bits that second literal
// too. The entry for the bits after the first code is t[i>>n1]; going down
// from the top, that entry is still a single literal's when it is read.
func pairLiterals(t *[litTableSize]uint32) {
	for i := 1<<litRootBits - 1; i >= 0; i-- {
		e := t[i]
		if e&entLit == 0 {
			continue
		}
		n1 := e & 15
		e2 := t[i>>n1]
		if e2&entLit == 0 || n1+(e2&15) > litRootBits {
			continue
		}
		t[i] = entLit | entTwo | (n1 + e2&15) | n1<<8 | e&0xff0000 | e2<<8&0xff000000
	}
}

// storedBlock copies a stored block's bytes to the ring.
func (z *gzipReader) storedBlock() {
	for z.stored > 0 {
		if z.unread >= stepOutput {
			return
		}
		if z.err = z.more(); z.err != nil {
			return
		}
		n := min(z.stored, z.iend-z.ip, stepOutput-z.unread, ringSize-z.wi)
		copy(z.win[z.wi:], z.in[z.ip:z.ip+n])
		z.ip += n
		z.stored -= n
		z.advance(z.wi + n)
	}
	z.endBlock()
}

// huffmanBlock decodes the current Huffman block until it ends or the step
// has its output: through the fast loop while 8 bytes of input are
// buffered, symbol by symbol in the input's last 8 bytes.
func (z *gzipReader) huffmanBlock() {
	for z.err == nil && z.state == stateHuffman && z.unread < stepOutput {
		switch {
		case z.iend-z.ip >= 8:
			z.decodeFast()
		case !z.eof && z.rerr == nil:
			z.fill()
		default:
			z.decodeSymbol()
		}
	}
}

// decodeFast is the inner loop. Each round refills bits to at least 56,
// enough for a length and a distance with their extra bits (at most 48),
// and a literal entry is followed by up to two more lookups before the next
// refill. It stops at the ring's end or the step's output, with the last
// symbol's bytes in the ring's slop.
func (z *gzipReader) decodeFast() {
	b, nb, ip, w := z.bits, z.nbits, z.ip, z.wi
	in := z.in[:z.iend]
	lit, dist, win := &z.lit, &z.dist, &z.win
	stop := min(ringSize, w+stepOutput-z.unread)
	// A match may reach back over the member's output so far and no further.
	hist := z.memOut - int64(w)
	eob, corrupt := false, false
	for w < stop && ip+8 <= len(in) {
		b |= binary.LittleEndian.Uint64(in[ip:]) << (nb & 63)
		ip += int((63 - nb) >> 3)
		nb |= 56
		e := lit[b&(1<<litRootBits-1)]
		if e&entLit != 0 {
			// Three literal entries take at most 33 of the 56 bits.
			for range 3 {
				win[w] = byte(e >> 16)
				win[w+1] = byte(e >> 24)
				w += 1 + int(e>>5&1)
				b >>= e & 15
				nb -= uint(e & 15)
				if e = lit[b&(1<<litRootBits-1)]; e&entLit == 0 {
					break
				}
			}
			continue
		}
		if e&entSub != 0 {
			e = lit[e>>16+uint32(b>>litRootBits)&(1<<(e>>8&15)-1)]
			if e&entLit != 0 {
				win[w] = byte(e >> 16)
				w++
				b >>= e & 15
				nb -= uint(e & 15)
				continue
			}
		}
		n := uint(e & 15)
		if e&(entEOB|entBad) != 0 || n == 0 {
			if eob = e&entEOB != 0; eob {
				b >>= n
				nb -= n
			}
			corrupt = !eob
			break
		}
		b >>= n
		nb -= n
		x := uint(e >> 8 & 15)
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		d := dist[b&(1<<distRootBits-1)]
		if d&entSub != 0 {
			d = dist[d>>16+uint32(b>>distRootBits)&(1<<(d>>8&15)-1)]
		}
		n = uint(d & 15)
		if d&entBad != 0 || n == 0 {
			corrupt = true
			break
		}
		b >>= n
		nb -= n
		x = uint(d >> 8 & 15)
		distance := int(d>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		if int64(distance) > hist+int64(w) {
			corrupt = true
			break
		}
		copyMatch(win[:], w, distance, length)
		w += length
	}
	z.bits, z.nbits, z.ip = b, nb, ip
	z.advance(w)
	switch {
	case corrupt:
		z.err = z.corrupt()
	case eob:
		z.endBlock()
	}
}

// decodeSymbol decodes one literal, match or end of block, taking input a
// byte at a time, so a stream cut short fails after the last code that
// arrived whole, as in compress/flate.
func (z *gzipReader) decodeSymbol() {
	e, err := z.sym(z.lit[:], litRootBits, z.litMin)
	switch {
	case err != nil:
		z.err = err
		return
	case e&entLit != 0:
		z.win[z.wi] = byte(e >> 16)
		z.advance(z.wi + 1)
		return
	case e&entEOB != 0:
		z.endBlock()
		return
	case e&entBad != 0:
		z.err = z.corrupt()
		return
	}
	extra, err := z.getBits(uint(e >> 8 & 15))
	if err != nil {
		z.err = err
		return
	}
	length := int(e>>16) + int(extra)
	d, err := z.sym(z.dist[:], distRootBits, z.distMin)
	if err != nil {
		z.err = err
		return
	}
	if d&entBad != 0 {
		z.err = z.corrupt()
		return
	}
	if extra, err = z.getBits(uint(d >> 8 & 15)); err != nil {
		z.err = err
		return
	}
	distance := int(d>>16) + int(extra)
	if int64(distance) > z.memOut {
		z.err = z.corrupt()
		return
	}
	copyMatch(z.win[:], z.wi, distance, length)
	z.advance(z.wi + length)
}

// copyMatch copies length bytes from distance back to win[w:], byte by byte
// where the two overlap, so a short distance repeats its bytes. A source
// before the ring's start continues from its end; a destination past the end
// is in the slop, and so is a source that follows it there.
func copyMatch(win []byte, w, distance, length int) {
	src := w - distance
	switch {
	case src >= 0 && distance >= length:
		copy(win[w:w+length], win[src:src+length])
	case src >= 0:
		for i := range length {
			win[w+i] = win[src+i]
		}
	default:
		src += ringSize
		for i := range length {
			win[w+i] = win[src]
			if src++; src == ringSize {
				src = 0
			}
		}
	}
}
