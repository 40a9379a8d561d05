package workload

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Trace file format ("hawk-trace"), the one format written and read: a
// header line carrying the Meta, followed by one job record per line
// (grammar in io.go), gzip-compressed when the path ends in ".gz" (written
// Huffman-only, see traceGzipLevel; read at any level):
//
//	#hawk-trace v=1 name="google" cutoff=1129 frac=0.17 jobs=50000 maxtasks=4113 tasks=1352384
//	0,1.93,12,104.2,98.7,...
//
// Records keep the order of every workload (JobOrder: submit times never
// fall, ids ascend) — the writer enforces it, the reader verifies it — so a
// reader can feed the simulator directly without buffering, knowing the
// cutoff, the job count and the size bounds before the first record is
// decoded. A file without the header is
// refused; records from an outside tool read in behind the minimal one,
// "#hawk-trace v=1 cutoff=C frac=F jobs=N" (name=, maxtasks= and tasks= are
// optional).

const streamHeaderMagic = "#hawk-trace"

// readBufferSize is a FileSource's read buffer; a longer record is assembled
// in FileSource.long.
const readBufferSize = 1 << 16

// WriteSource drains src to w in the hawk-trace format (uncompressed; see
// SaveSource for the gzip-by-extension convenience). Jobs are written as
// they are pulled and recycled back to src when it implements Recycler, so
// converting a streamed source to a file is O(in-flight) in memory. It
// writes nothing the reader would reject: a Meta, a job (CheckJob, the
// header's maxtasks= bound) or an order of jobs the reader refuses is an
// error here.
func WriteSource(w io.Writer, src Source) error {
	m := src.Meta()
	if err := checkMeta(m); err != nil {
		return fmt.Errorf("workload: trace %q: meta %w", m.Name, err)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s v=1 name=%q cutoff=%s frac=%s jobs=%d maxtasks=%d tasks=%d\n",
		streamHeaderMagic, m.Name,
		strconv.FormatFloat(m.Cutoff, 'g', -1, 64),
		strconv.FormatFloat(m.ShortPartitionFraction, 'g', -1, 64),
		m.NumJobs, m.MaxTasks, m.TotalTasks); err != nil {
		return err
	}
	rec, count := make([]byte, 0, 1024), 0
	var order JobOrder
	recycler, _ := src.(Recycler)
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if err := CheckJob(j); err != nil {
			return fmt.Errorf("workload: trace %q: %w", m.Name, err)
		}
		if m.MaxTasks > 0 && len(j.Durations) > m.MaxTasks {
			return fmt.Errorf("workload: trace %q: job %d has %d tasks, meta promised at most %d", m.Name, j.ID, len(j.Durations), m.MaxTasks)
		}
		if err := order.Check(m.Name, j); err != nil {
			return err
		}
		rec = appendJobRecord(rec[:0], j)
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("workload: writing job %d: %w", j.ID, err)
		}
		count++
		if recycler != nil {
			recycler.Recycle(j)
		}
	}
	if err := SourceErr(src); err != nil {
		return err
	}
	if count != m.NumJobs {
		return fmt.Errorf("workload: source yielded %d jobs, meta promised %d", count, m.NumJobs)
	}
	return bw.Flush()
}

// traceGzipLevel is how a ".gz" trace is compressed: Huffman coding alone,
// no LZ77 match search. A record is mostly 16–17-digit shortest floats, in
// which level 6's search finds almost nothing to match and still costs most
// of the write. On BenchmarkWriteSource's 4 000-job Google trace (2.1 MB
// plain, 2-vCPU Xeon), writing the records takes 15–16 ms (the plain row)
// and Huffman-only deflate adds 9–11 ms (the gz row), where level 6 adds
// 110–140 ms; on a 40 000-job trace Huffman-only comes out 3.9 % smaller
// (10 059 232 → 9 667 326 B). The records' digits and separators
// get codes of 3 to 6 bits, so the gzip reader (gzipReader) mostly decodes
// two literals per table lookup, and it inflates a Huffman-only trace about
// 3.5× faster than compress/gzip (BenchmarkGzipReader). The four generators' traces shrink 3.9–4.5 %; a
// trace of repeated values grows — the motivation workload, every duration
// 100, from 0.02 to 0.16 MB at 20 000 jobs. Any gzip reader opens the file,
// and the reader here opens any gzip stream, level-6 files included.
const traceGzipLevel = gzip.HuffmanOnly

// CreateFile creates path for writing as os.Create does, except that an
// existing regular file is removed first instead of truncated in place. On
// ext4, truncating a file that was itself rewritten moments earlier waits
// for that file's writeback: saving a 21 MB trace over itself in a loop
// took 1.0–1.2 s per save from the third on (writing a temporary file and
// renaming it over the path stalled the same way), where removing the file
// and creating a new one took 2–3 ms. Only a regular file is removed, as
// os.Lstat sees it: a missing path, a device such as /dev/null, a FIFO or a
// symlink (whose target is written, the link kept) go to os.Create as
// before, and so does a file the remove is refused for. A replaced file is
// a new inode: another hard link to the old one keeps the old bytes, and
// the new file has os.Create's mode, not the old file's. Every writer of a
// trace or report file opens it here.
func CreateFile(path string) (*os.File, error) {
	if fi, err := os.Lstat(path); err == nil && fi.Mode().IsRegular() {
		os.Remove(path) // if refused, os.Create truncates as before
	}
	return os.Create(path)
}

// SaveSource writes src to path in the hawk-trace format, gzipped
// Huffman-only (traceGzipLevel) when the path ends in ".gz". An existing
// file is replaced (CreateFile). On any error the file it created is
// removed, so a failed save leaves no partial trace.
func SaveSource(path string, src Source) (err error) {
	f, err := CreateFile(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			err = errors.Join(err, os.Remove(path))
		}
	}()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		if gz, err = gzip.NewWriterLevel(f, traceGzipLevel); err != nil {
			return err
		}
		w = gz
	}
	if err = WriteSource(w, src); err != nil {
		return err
	}
	if gz != nil {
		if err = gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// FileSource streams jobs from a hawk-trace file: each Next takes one line
// off the 64 KiB read buffer, cuts it at commas and parses the fields
// straight into a pooled Job, so a run that recycles its jobs decodes the
// whole file without allocating per job and peak memory is O(in-flight
// jobs) regardless of file size. Lines end in "\n" or "\r\n", blank lines
// are skipped and the last record may lack its newline — what encoding/csv
// accepts of an unquoted file, which FuzzStreamTrace holds it to. It
// enforces the format's ordering and count invariants as it reads and
// reports failures through Err. FileSource implements Recycler; Close
// releases the file handle.
type FileSource struct {
	f      *os.File
	r      *bufio.Reader
	long   []byte   // a record longer than r's buffer, assembled
	fields [][]byte // the current record cut at commas
	meta   Meta
	order  JobOrder // the order check, holding the previous record
	n      int
	err    error
	done   bool
	free   []*Job
}

// OpenSource opens a hawk-trace file for streaming, through gzipReader when
// the name ends in ".gz". It reads only the header: job records decode
// lazily via Next. A file whose first line is not a hawk-trace header is
// refused with an error naming the line it lacks. The FileSource owns the
// file; Close releases it.
func OpenSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &FileSource{f: f}
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		if r, err = newGzipReader(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("workload: %s: %w", path, err)
		}
	}
	s.r = bufio.NewReaderSize(r, readBufferSize)
	first, err := s.r.ReadString('\n')
	if err != nil && err != io.EOF {
		s.Close()
		return nil, fmt.Errorf("workload: %s: reading header: %w", path, err)
	}
	if s.meta, err = parseStreamHeader(first); err != nil {
		s.Close()
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return s, nil
}

// parseStreamHeader decodes the #hawk-trace header line. Values are
// space-separated key=value pairs; name is a Go-quoted string (spaces and
// quotes allowed).
func parseStreamHeader(line string) (Meta, error) {
	var m Meta
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r")
	rest, ok := strings.CutPrefix(line, streamHeaderMagic)
	if !ok || (rest != "" && rest[0] != ' ') {
		if len(line) > 40 {
			line = line[:40] + "..."
		}
		return m, fmt.Errorf(`no hawk-trace header: the first line is %q, where a trace begins "#hawk-trace v=1 cutoff=C frac=F jobs=N"`, line)
	}
	sawVersion := false
	for rest != "" {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return m, fmt.Errorf("header field %q: missing '='", rest)
		}
		key, val := rest[:eq], rest[eq+1:]
		var err error
		if strings.HasPrefix(val, `"`) {
			var quoted string
			if quoted, err = strconv.QuotedPrefix(val); err != nil {
				return m, fmt.Errorf("header field %s: bad quoted value: %w", key, err)
			}
			rest = val[len(quoted):]
			if val, err = strconv.Unquote(quoted); err != nil {
				return m, fmt.Errorf("header field %s: %w", key, err)
			}
		} else if sp := strings.IndexByte(val, ' '); sp >= 0 {
			val, rest = val[:sp], val[sp:]
		} else {
			rest = ""
		}
		switch key {
		case "v":
			if val != "1" {
				return m, fmt.Errorf("unsupported hawk-trace version %q", val)
			}
			sawVersion = true
		case "name":
			m.Name = val
		case "cutoff":
			m.Cutoff, err = strconv.ParseFloat(val, 64)
		case "frac":
			m.ShortPartitionFraction, err = strconv.ParseFloat(val, 64)
		case "jobs":
			m.NumJobs, err = strconv.Atoi(val)
		case "maxtasks":
			m.MaxTasks, err = strconv.Atoi(val)
		case "tasks":
			m.TotalTasks, err = strconv.ParseInt(val, 10, 64)
		default:
			// Unknown keys are ignored for forward compatibility.
		}
		if err != nil {
			return m, fmt.Errorf("header field %s=%q: %w", key, val, err)
		}
	}
	if !sawVersion {
		return m, fmt.Errorf("header missing version field")
	}
	if err := checkMeta(m); err != nil {
		return m, fmt.Errorf("header field %w", err)
	}
	return m, nil
}

// checkMeta holds m to what a hawk-trace header may state: sizes >= 0, a
// finite cutoff >= 0 and a fraction in [0, 1]. The reader applies it to every
// header it parses and WriteSource to every Meta it is asked to write.
func checkMeta(m Meta) error {
	switch {
	case m.NumJobs < 0:
		return fmt.Errorf("jobs=%d is negative", m.NumJobs)
	case m.MaxTasks < 0:
		return fmt.Errorf("maxtasks=%d is negative", m.MaxTasks)
	case m.TotalTasks < 0:
		return fmt.Errorf("tasks=%d is negative", m.TotalTasks)
	case !nonNegative(m.Cutoff):
		return fmt.Errorf("cutoff=%g is not a finite number >= 0", m.Cutoff)
	case !(m.ShortPartitionFraction >= 0 && m.ShortPartitionFraction <= 1):
		return fmt.Errorf("frac=%g is not in [0, 1]", m.ShortPartitionFraction)
	}
	return nil
}

// Meta returns the metadata from the file header.
func (s *FileSource) Meta() Meta { return s.meta }

// Next decodes and returns the next job record. It returns (nil, false) at
// end of stream or on a decode error; check Err to distinguish. A consumer
// that stops at Meta.NumJobs never makes the call that would reach the end
// of the file, so on decoding the last promised record Next reads on itself:
// Err is then already set if more records follow or the gzip trailer does
// not verify.
func (s *FileSource) Next() (*Job, bool) {
	if s.done {
		return nil, false
	}
	line, err := s.record()
	if err == io.EOF {
		s.done = true
		if s.n != s.meta.NumJobs {
			s.err = fmt.Errorf("workload: trace %q: file ended after %d jobs, header promised %d", s.meta.Name, s.n, s.meta.NumJobs)
		}
		return nil, false
	}
	if err != nil {
		s.fail(fmt.Errorf("workload: trace %q: job %d: %w", s.meta.Name, s.n, err))
		return nil, false
	}
	if s.n >= s.meta.NumJobs {
		s.fail(fmt.Errorf("workload: trace %q: more records than the %d jobs the header promised", s.meta.Name, s.meta.NumJobs))
		return nil, false
	}
	var j *Job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		j = &Job{}
	}
	s.fields = cutFields(s.fields[:0], line)
	if err := parseJobFields(s.fields, j); err != nil {
		if bytes.IndexByte(line, '"') >= 0 {
			err = errors.New("quoted field (hawk-trace records are never quoted)")
		}
		s.fail(fmt.Errorf("workload: trace %q: job %d: %w", s.meta.Name, s.n, err))
		return nil, false
	}
	if err := s.order.Check(s.meta.Name, j); err != nil {
		s.fail(err)
		return nil, false
	}
	if s.meta.MaxTasks > 0 && len(j.Durations) > s.meta.MaxTasks {
		s.fail(fmt.Errorf("workload: trace %q: job %d has %d tasks, header promised at most %d", s.meta.Name, j.ID, len(j.Durations), s.meta.MaxTasks))
		return nil, false
	}
	s.n++
	if s.n == s.meta.NumJobs {
		s.Next() // a clean end of file, or a diagnosis in Err
	}
	return j, true
}

// record returns the next line that is not blank, cut before its "\n" or
// "\r\n" (or a "\r" that ends the file), or io.EOF after the last one. The
// bytes are valid until the next call: a line is a slice of the read buffer,
// or of s.long when it is longer than the buffer.
func (s *FileSource) record() ([]byte, error) {
	for {
		line, err := s.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			s.long = append(s.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = s.r.ReadSlice('\n')
				s.long = append(s.long, line...)
			}
			line = s.long
		}
		if err == io.EOF && len(line) > 0 {
			err = nil // a last record without a newline
		}
		if err != nil {
			return nil, err
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) > 0 {
			return line, nil
		}
	}
}

func (s *FileSource) fail(err error) {
	s.done = true
	s.err = err
}

// Err returns the first error encountered while streaming, or nil after a
// clean end of stream.
func (s *FileSource) Err() error { return s.err }

// Recycle returns a job to the source's pool for reuse by a later Next.
func (s *FileSource) Recycle(j *Job) {
	if j == nil {
		return
	}
	s.free = append(s.free, j)
}

// Close releases the underlying file. Next returns false after Close.
func (s *FileSource) Close() error {
	s.done = true
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

var (
	_ Source   = (*FileSource)(nil)
	_ Recycler = (*FileSource)(nil)
)
