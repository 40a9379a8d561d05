package workload

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// FuzzGzipReader holds gzipReader to compress/gzip on arbitrary bytes: a
// stream one accepts the other accepts with the same bytes, and a stream one
// rejects the other rejects after yielding the same bytes, for the same kind
// of reason — a truncation, a bad trailer (gzip.ErrChecksum), a bad header
// (gzip.ErrHeader) or corrupt deflate data. gzipReader reads its input at
// most chunk+1 bytes per call, so its buffer refills land anywhere.
func FuzzGzipReader(f *testing.F) {
	for _, s := range gzipSeeds() {
		f.Add(s, uint16(0xffff))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		want, wantErr := stdGunzip(data)
		got, gotErr := ourGunzip(&chunkReader{data, int(chunk) + 1})
		if gotErr == nil && wantErr == nil && bytes.Equal(got, want) {
			return
		}
		if errKind(gotErr) != errKind(wantErr) {
			t.Fatalf("error %v, compress/gzip's %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes (then %v) differ from compress/gzip's %d (then %v)", len(got), gotErr, len(want), wantErr)
		}
	})
}

// Streams far longer than the ring, with matches across its end, at the
// farthest distance and across a member boundary, decode to compress/gzip's
// bytes whatever the sizes of the reads on either side.
func TestGzipReaderMatchesStdlibOnLongStreams(t *testing.T) {
	var trace bytes.Buffer
	if err := WriteSource(&trace, NewTraceSource(Generate(Google(), GenConfig{NumJobs: 600, MeanInterArrival: 2.3, Seed: 1}))); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 40000)
	rng.Read(noise)
	reps := append([]byte{}, noise...)
	reps = append(reps, noise[len(noise)-1<<15:]...) // a match at distance 32768
	reps = append(reps, bytes.Repeat([]byte{'a'}, 5000)...)
	for i := 0; i < 200; i++ {
		at := rng.Intn(len(reps) - 300)
		reps = append(reps, reps[at:at+rng.Intn(300)]...)
	}
	for _, text := range [][]byte{trace.Bytes(), reps} {
		for _, level := range []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, 6, gzip.BestCompression} {
			z := gzipLevel(text, level)
			z = append(z, z...) // two members
			want, err := stdGunzip(z)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1 << 20, 4093, 7} {
				zr, err := newGzipReader(&chunkReader{z, chunk})
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(&varyingReads{r: zr})
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("level %d, input chunks of %d: %d bytes (%v), want compress/gzip's %d", level, chunk, len(got), err, len(want))
				}
			}
		}
	}
}

// A corrupt-data error's offset is the file offset just past the byte the
// reader refused: after the header of the first member or of a later one, and
// after a stored block's length fields, however the input arrives.
func TestCorruptOffsetIsAFileOffset(t *testing.T) {
	first := gzipLevel([]byte("some trace text\n"), gzip.HuffmanOnly)
	reserved := []byte{0x07}                        // a final block of type 3
	badLen := []byte{0x01, 1, 0, 0, 0}              // a final stored block, LEN 1, NLEN 0
	named := gzipMember(0x08, false, reserved, nil) // header 10 + 11 bytes
	for _, c := range []struct {
		name string
		file []byte
		want int64
	}{
		{"reserved type", gzipMember(0, false, reserved, nil), 11},
		{"named member", named, 22},
		{"second member", append(append([]byte{}, first...), named...), int64(len(first)) + 22},
		{"stored length", gzipMember(0, false, badLen, nil), 15},
	} {
		for _, chunk := range []int{len(c.file), 3} {
			_, err := ourGunzip(&chunkReader{c.file, chunk})
			var corrupt flate.CorruptInputError
			if !errors.As(err, &corrupt) || int64(corrupt) != c.want {
				t.Errorf("%s, input chunks of %d: %v, want corrupt input before offset %d", c.name, chunk, err, c.want)
			}
		}
	}
}

// varyingReads reads r with buffers of 1 to 9000 bytes in turn.
type varyingReads struct {
	r io.Reader
	n int
}

func (v *varyingReads) Read(p []byte) (int, error) {
	v.n = v.n%9000 + 1
	return v.r.Read(p[:min(len(p), v.n*v.n%9000+1)])
}

// stdGunzip and ourGunzip decode data whole, returning what was read before
// the error that ended it (nil at a clean end).
func stdGunzip(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func ourGunzip(r io.Reader) ([]byte, error) {
	zr, err := newGzipReader(r)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// errKind names the reason a stream was refused.
func errKind(err error) string {
	var corrupt flate.CorruptInputError
	switch {
	case err == nil:
		return "none"
	case err == io.EOF:
		return "empty"
	case err == io.ErrUnexpectedEOF:
		return "truncated"
	case errors.Is(err, gzip.ErrChecksum):
		return "checksum"
	case errors.Is(err, gzip.ErrHeader):
		return "header"
	case errors.As(err, &corrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// gzipSeeds are the streams the fuzzer starts from: real traces at each
// level, every header flag, concatenated members, every truncation and every
// trailer fault of a small stream, and hand-built deflate data that each
// check of the decoder must refuse.
func gzipSeeds() [][]byte {
	var trace bytes.Buffer
	if err := WriteSource(&trace, NewTraceSource(Generate(Google(), GenConfig{NumJobs: 15, MeanInterArrival: 2.3, Seed: 1}))); err != nil {
		panic(err)
	}
	text := trace.Bytes()
	var seeds [][]byte
	for _, level := range []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, 6, gzip.BestCompression} {
		seeds = append(seeds, gzipLevel(text, level))
	}
	small := gzipLevel([]byte("0,0.5,2,1.25,1.25\n1,0.75,1,3\n"), 6)
	seeds = append(seeds,
		small,
		append(append([]byte{}, small...), gzipLevel([]byte("2,1,1,1\n"), gzip.HuffmanOnly)...), // two members
		append(append([]byte{}, small...), "xyz"...),                                            // bytes after the trailer
		nil,
	)
	for i := range small {
		seeds = append(seeds, small[:i])
	}
	for i := len(small) - 8; i < len(small); i++ {
		s := append([]byte{}, small...)
		s[i] ^= 0x01
		seeds = append(seeds, s)
	}
	bad := append([]byte{}, small...)
	bad[0] = 0x1e
	seeds = append(seeds, bad)

	// Every header flag, and a header CRC that is wrong.
	body, out := fixedBlock(), []byte("abcabcabc")
	for _, flg := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x1f} {
		seeds = append(seeds, gzipMember(flg, false, body, out))
	}
	seeds = append(seeds, gzipMember(0x1f, true, body, out))
	long := gzipMember(0, false, body, out) // a file name of 512 bytes and more
	long[3] = 0x08
	long = append(long[:10], append(append(bytes.Repeat([]byte{'n'}, 600), 0), long[10:]...)...)
	seeds = append(seeds, long)

	// Deflate data each check refuses, and a dynamic block it accepts.
	lit := make([]uint8, 257)
	lit['a'], lit[256] = 1, 1
	dist := []uint8{1} // one distance code of length 1: allowed
	seeds = append(seeds,
		gzipMember(0, false, distBeforeStart(), nil),
		gzipMember(0, false, dynamicBlock(make([]uint8, 257), dist, nil), nil),
		gzipMember(0, false, overSubscribedLengths(), nil),
		gzipMember(0, false, incompleteLengths(), nil),
		gzipMember(0, false, clenCode([19]uint8{0: 1, 1: 1, 2: 1}), nil),                                               // over-subscribed code-length code
		gzipMember(0, false, clenCode([19]uint8{0: 2}), nil),                                                           // incomplete code-length code
		gzipMember(0, false, dynamicBlock(append(lit, make([]uint8, 288-257)...), dist, []int{'a', 256}), []byte("a")), // HLIT > 286
		gzipMember(0, false, dynamicHeader(257, 1, [][2]uint32{{16, 0}}).b, nil),                                       // a repeat of no length
		gzipMember(0, false, dynamicHeader(257, 1, [][2]uint32{{18, 127}, {18, 127}}).b, nil),                          // a repeat past the end
		gzipMember(0, false, dynamicBlock(lit, make([]uint8, 32), []int{'a', 256}), []byte("a")),                       // HDIST > 30
		gzipMember(0, false, dynamicBlock(lit, dist, []int{'a', 'a', 256}), []byte("aa")),
	)
	return seeds
}

func gzipLevel(text []byte, level int) []byte {
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, level)
	if err != nil {
		panic(err)
	}
	if _, err := zw.Write(text); err != nil {
		panic(err)
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// gzipMember frames deflate data whose output is out: a header with flags
// flg (with a wrong header CRC if badHCRC), then the trailer of out.
func gzipMember(flg byte, badHCRC bool, deflate, out []byte) []byte {
	m := []byte{0x1f, 0x8b, 8, flg, 0, 0, 0, 0, 0, 255}
	if flg&0x04 != 0 {
		m = append(m, 3, 0, 'x', 'y', 'z')
	}
	if flg&0x08 != 0 {
		m = append(m, "name.trace\x00"...)
	}
	if flg&0x10 != 0 {
		m = append(m, "a comment\x00"...)
	}
	if flg&0x02 != 0 {
		hcrc := uint16(crc32.ChecksumIEEE(m))
		if badHCRC {
			hcrc++
		}
		m = binary.LittleEndian.AppendUint16(m, hcrc)
	}
	m = append(m, deflate...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(out))
	return binary.LittleEndian.AppendUint32(m, uint32(len(out)))
}

// bitWriter writes deflate's bit order: values least significant bit first,
// Huffman codes most significant bit first.
type bitWriter struct {
	b     []byte
	nbits uint
}

func (w *bitWriter) bits(v uint32, n uint) {
	for i := range n {
		if w.nbits%8 == 0 {
			w.b = append(w.b, 0)
		}
		w.b[len(w.b)-1] |= byte(v>>i&1) << (w.nbits % 8)
		w.nbits++
	}
}

func (w *bitWriter) code(c uint32, n uint) {
	w.bits(uint32(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// canonicalCodes assigns the canonical code of RFC 1951 3.2.2 to lengths.
func canonicalCodes(lengths []uint8) []uint32 {
	var count [16]uint32
	for _, n := range lengths {
		if n > 0 {
			count[n]++
		}
	}
	var next [16]uint32
	code := uint32(0)
	for n := 1; n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint32, len(lengths))
	for s, n := range lengths {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// fixedBlock is a final fixed-code block writing "abc" and a match of
// length 6 at distance 3.
func fixedBlock() []byte {
	var w bitWriter
	w.bits(1, 1)
	w.bits(1, 2)
	for _, c := range "abc" {
		w.code(0x30+uint32(c), 8)
	}
	w.code(260-256, 7) // length 6
	w.code(2, 5)       // distance 3
	w.code(0, 7)       // end of block
	return w.b
}

// distBeforeStart is a fixed-code block whose first symbol is a match.
func distBeforeStart() []byte {
	var w bitWriter
	w.bits(1, 1)
	w.bits(1, 2)
	w.code(1, 7) // length 3
	w.code(0, 5) // distance 1, before the first byte
	w.code(0, 7)
	return w.b
}

// clenLengths is a complete code-length code: 13 codes of 4 bits, 6 of 5.
var clenLengths = func() (l [19]uint8) {
	for i := range l {
		l[i] = 4
		if i >= 13 {
			l[i] = 5
		}
	}
	return l
}()

// dynamicBlock is a final dynamic block with the given code lengths (any
// count, so HLIT and HDIST may be out of range), each sent as itself, then
// syms coded with them.
func dynamicBlock(lit, dist []uint8, syms []int) []byte {
	var seq [][2]uint32
	for _, n := range append(append([]uint8{}, lit...), dist...) {
		seq = append(seq, [2]uint32{uint32(n), 0})
	}
	w := dynamicHeader(len(lit), len(dist), seq)
	codes := canonicalCodes(lit)
	for _, s := range syms {
		w.code(codes[s], uint(lit[s]))
	}
	return w.b
}

// dynamicHeader writes a final dynamic block's header announcing nlit and
// ndist code lengths, sent as the code-length symbols and extra bits of seq.
func dynamicHeader(nlit, ndist int, seq [][2]uint32) *bitWriter {
	w := new(bitWriter)
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(uint32(nlit-257), 5)
	w.bits(uint32(ndist-1), 5)
	w.bits(19-4, 4)
	for _, o := range codeOrder {
		w.bits(uint32(clenLengths[o]), 3)
	}
	clCodes := canonicalCodes(clenLengths[:])
	for _, e := range seq {
		w.code(clCodes[e[0]], uint(clenLengths[e[0]]))
		w.bits(e[1], map[uint32]uint{16: 2, 17: 3, 18: 7}[e[0]])
	}
	return w
}

// overSubscribedLengths gives all 257 literal/length symbols a 1-bit code.
func overSubscribedLengths() []byte {
	lit := make([]uint8, 257)
	for i := range lit {
		lit[i] = 1
	}
	return dynamicBlock(lit, []uint8{1}, nil)
}

// incompleteLengths gives two literal/length symbols 2-bit codes and the rest
// none.
func incompleteLengths() []byte {
	lit := make([]uint8, 257)
	lit['a'], lit[256] = 2, 2
	return dynamicBlock(lit, []uint8{1}, nil)
}

// clenCode is a dynamic block header whose code-length code has lengths l.
func clenCode(l [19]uint8) []byte {
	var w bitWriter
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(0, 5)
	w.bits(0, 5)
	w.bits(19-4, 4)
	for _, o := range codeOrder {
		w.bits(uint32(l[o]), 3)
	}
	w.bits(0, 32)
	return w.b
}
