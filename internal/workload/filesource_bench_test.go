package workload

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The decode rung of the measurement ladder: what it costs to turn a
// hawk-trace file back into jobs, the way a run reads one — Next, then
// Recycle once the job is done with — for a 4 000-job Google trace (about
// 110 000 tasks, 2 MB plain). One op is the whole file, opened and closed;
// MB/s counts the file's bytes on disk, so the two forms are not comparable
// by it, and jobs/s is.
func BenchmarkFileSourceNext(b *testing.B) {
	tr := Generate(Google(), GenConfig{NumJobs: 4000, MeanInterArrival: 2.3, Seed: 1})
	for _, form := range []struct{ name, file string }{
		{"plain", "google.trace"},
		{"gz", "google.trace.gz"},
	} {
		b.Run(form.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), form.file)
			if err := SaveSource(path, NewTraceSource(tr)); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			for b.Loop() {
				src, err := OpenSource(path)
				if err != nil {
					b.Fatal(err)
				}
				jobs := 0
				for j, ok := src.Next(); ok; j, ok = src.Next() {
					src.Recycle(j)
					jobs++
				}
				if err := src.Err(); err != nil || jobs != tr.Len() {
					b.Fatalf("decoded %d of %d jobs: %v", jobs, tr.Len(), err)
				}
				src.Close()
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// The inflate rung: the gzip reader alone on the same 4 000-job trace, gzipped
// the way SaveSource writes it (Huffman-only) and at level 6, as an outside
// gzip writes it. One op inflates the whole stream into a reused buffer; the
// reader is reused too, so allocs/op is what decoding allocates after open.
// MB/s counts inflated bytes.
func BenchmarkGzipReader(b *testing.B) {
	z := new(gzipReader)
	benchInflate(b, func(b *testing.B, in *bytes.Reader) io.Reader {
		*z = gzipReader{src: in}
		if err := z.readHeader(); err != nil {
			b.Fatal(err)
		}
		return z
	})
}

// The inflate rung's reference: compress/gzip's reader, Reset onto the same
// bytes. It is a separate benchmark so that a pattern naming GzipReader (as
// CI's head-against-base comparison does) leaves it out: it times the same
// standard-library code on either side.
func BenchmarkStdlibGunzip(b *testing.B) {
	z := new(gzip.Reader)
	benchInflate(b, func(b *testing.B, in *bytes.Reader) io.Reader {
		if err := z.Reset(in); err != nil {
			b.Fatal(err)
		}
		return z
	})
}

// benchInflate runs the inflate rung's forms, opening each op's reader on
// the stream with open.
func benchInflate(b *testing.B, open func(b *testing.B, in *bytes.Reader) io.Reader) {
	var text bytes.Buffer
	if err := WriteSource(&text, NewTraceSource(Generate(Google(), GenConfig{NumJobs: 4000, MeanInterArrival: 2.3, Seed: 1}))); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, readBufferSize)
	for _, form := range []struct {
		name  string
		level int
	}{{"huffman-only", traceGzipLevel}, {"level-6", 6}} {
		var gz bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&gz, form.level)
		if _, err := zw.Write(text.Bytes()); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(text.Len()))
			b.ReportAllocs()
			var in bytes.Reader
			for b.Loop() {
				in.Reset(gz.Bytes())
				r := open(b, &in)
				n := 0
				for {
					m, err := r.Read(buf)
					n += m
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if n != text.Len() {
					b.Fatalf("inflated %d bytes, want %d", n, text.Len())
				}
			}
		})
	}
}

// The rung under decode: parseFloat per number, over the submit times and
// durations of the same trace as appendJobRecord spells them (mostly 17
// significant digits). ns/op is ns per number.
func BenchmarkParseFloat(b *testing.B) {
	tr := Generate(Google(), GenConfig{NumJobs: 200, MeanInterArrival: 2.3, Seed: 1})
	var nums [][]byte
	for _, j := range tr.Jobs {
		nums = append(nums, strconv.AppendFloat(nil, j.SubmitTime, 'g', -1, 64))
		for _, d := range j.Durations {
			nums = append(nums, strconv.AppendFloat(nil, d, 'g', -1, 64))
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := parseFloat(nums[i%len(nums)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// The encode rung, hawkbench's workload.encode_s in isolation: the same trace
// through SaveSource — WriteSource into a file, behind a Huffman-only gzip
// writer for the ".gz" name. One op is the whole file, created and closed; MB/s counts its
// bytes on disk, as above.
func BenchmarkWriteSource(b *testing.B) {
	src := NewTraceSource(Generate(Google(), GenConfig{NumJobs: 4000, MeanInterArrival: 2.3, Seed: 1}))
	for _, form := range []struct{ name, file string }{
		{"plain", "google.trace"},
		{"gz", "google.trace.gz"},
	} {
		b.Run(form.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), form.file)
			b.ReportAllocs()
			for b.Loop() {
				src.next = 0
				if err := SaveSource(path, src); err != nil {
					b.Fatal(err)
				}
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fi.Size())
			b.ReportMetric(float64(src.meta.NumJobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
