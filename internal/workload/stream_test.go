package workload

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func itoa(n int) string { return strconv.Itoa(n) }

func jobEqual(a, b *Job) bool {
	if a.ID != b.ID || a.SubmitTime != b.SubmitTime || a.ConstructedLong != b.ConstructedLong {
		return false
	}
	if len(a.Durations) != len(b.Durations) {
		return false
	}
	for i := range a.Durations {
		if a.Durations[i] != b.Durations[i] {
			return false
		}
	}
	return true
}

func genCfg(n int) GenConfig { return GenConfig{NumJobs: n, MeanInterArrival: 2.3, Seed: 42} }

// drainSource pulls every job, copying them (so recycling sources are safe
// to compare against) and failing the test on a source error.
func drainSource(t *testing.T, src Source) []*Job {
	t.Helper()
	rec, _ := src.(Recycler)
	var out []*Job
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		cp := &Job{ID: j.ID, SubmitTime: j.SubmitTime, ConstructedLong: j.ConstructedLong,
			Durations: append([]float64(nil), j.Durations...)}
		out = append(out, cp)
		if rec != nil {
			rec.Recycle(j)
		}
	}
	if err := SourceErr(src); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return out
}

// Every kind of source over one workload yields the same Meta and the same
// jobs in the same order as Generate, for every spec — the generator with
// recycling exercised, so reuse of Job objects is proven not to corrupt the
// stream; the file plain and gzipped, opened as a run would open it. This is
// what makes "same jobs, same config, same report" a property of the
// simulator's one input path rather than of each source.
func TestGeneratorSourceEquivalence(t *testing.T) {
	for _, spec := range AllSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := genCfg(300)
			want := Generate(spec, cfg)
			sources := map[string]Source{
				"TraceSource":     NewTraceSource(want),
				"GeneratorSource": NewGeneratorSource(spec, cfg),
			}
			for _, name := range []string{"t.trace", "t.trace.gz"} {
				path := filepath.Join(t.TempDir(), name)
				if err := SaveSource(path, NewGeneratorSource(spec, cfg)); err != nil {
					t.Fatal(err)
				}
				src, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer src.(*FileSource).Close()
				sources[name] = src
			}
			for name, src := range sources {
				if m, wm := src.Meta(), want.Meta(); m != wm {
					t.Errorf("%s: meta = %+v, want %+v", name, m, wm)
				}
				got := drainSource(t, src)
				if len(got) != want.Len() {
					t.Fatalf("%s: yielded %d jobs, want %d", name, len(got), want.Len())
				}
				for i := range got {
					if !jobEqual(got[i], want.Jobs[i]) {
						t.Fatalf("%s: job %d differs: %+v != %+v", name, i, got[i], want.Jobs[i])
					}
				}
			}
		})
	}
}

func TestGeneratorSourceReset(t *testing.T) {
	src := NewGeneratorSource(Google(), genCfg(100))
	first := drainSource(t, src)
	src.Reset()
	second := drainSource(t, src)
	if len(first) != len(second) {
		t.Fatalf("reset changed job count: %d != %d", len(first), len(second))
	}
	for i := range first {
		if !jobEqual(first[i], second[i]) {
			t.Fatalf("job %d differs after reset", i)
		}
	}
}

// An unsorted trace must come out of the adapter in stable submission
// order while the trace itself stays untouched.
func TestTraceSourceUnsorted(t *testing.T) {
	tr := &Trace{Name: "t", Cutoff: 10, ShortPartitionFraction: 0.1, Jobs: []*Job{
		{ID: 0, SubmitTime: 5, Durations: []float64{1}},
		{ID: 1, SubmitTime: 2, Durations: []float64{1}},
		{ID: 2, SubmitTime: 2, Durations: []float64{1}},
		{ID: 3, SubmitTime: 0, Durations: []float64{1}},
	}}
	if tr.Meta().Sorted {
		t.Fatal("trace should report unsorted")
	}
	src := NewTraceSource(tr)
	if !src.Meta().Sorted {
		t.Fatal("adapter must present a sorted stream")
	}
	var ids []int
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		ids = append(ids, j.ID)
	}
	want := []int{3, 1, 2, 0} // stable: 1 before 2 at the tie
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
	if tr.Jobs[0].ID != 0 {
		t.Fatal("adapter reordered the underlying trace")
	}
}

func TestTraceSourceSortedNoOrder(t *testing.T) {
	tr := Generate(Google(), genCfg(50))
	src := NewTraceSource(tr)
	got := drainSource(t, src)
	for i := range got {
		if !jobEqual(got[i], tr.Jobs[i]) {
			t.Fatalf("job %d differs", i)
		}
	}
	if len(got) != tr.Len() {
		t.Fatalf("yielded %d jobs, want %d", len(got), tr.Len())
	}
}

func TestStreamFileRoundTrip(t *testing.T) {
	for _, name := range []string{"trace.hawk", "trace.hawk.gz"} {
		t.Run(name, func(t *testing.T) {
			cfg := genCfg(200)
			want := Generate(Google(), cfg)
			path := filepath.Join(t.TempDir(), name)
			if err := SaveSource(path, NewGeneratorSource(Google(), cfg)); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenSource(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			m := fs.Meta()
			wm := want.Meta()
			if m.Name != "google" || m.NumJobs != want.Len() || m.MaxTasks != wm.MaxTasks || m.TotalTasks != wm.TotalTasks {
				t.Fatalf("header meta = %+v, want to match %+v", m, wm)
			}
			if m.Cutoff != want.Cutoff || m.ShortPartitionFraction != want.ShortPartitionFraction {
				t.Fatalf("header defaults = (%g, %g)", m.Cutoff, m.ShortPartitionFraction)
			}
			got := drainSource(t, fs)
			if len(got) != want.Len() {
				t.Fatalf("read %d jobs, want %d", len(got), want.Len())
			}
			for i := range got {
				if !jobEqual(got[i], want.Jobs[i]) {
					t.Fatalf("job %d differs after file round trip", i)
				}
			}
		})
	}
}

// writeTraceFile writes content to path, gzipped when the name ends in ".gz"
// — at gzip's default level, as an outside tool or an older build writes a
// trace, not the Huffman-only stream SaveSource writes.
func writeTraceFile(t *testing.T, path string, content []byte) {
	t.Helper()
	if strings.HasSuffix(path, ".gz") {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write(content)
		zw.Close()
		content = z.Bytes()
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A trace file opens by what is in it: the same jobs load from a hawk-trace
// file and from a headerless legacy CSV, each plain and gzipped — ".gz" is a
// rule about files, not about one format (a gzipped legacy CSV used to reach
// ReadCSV still compressed and be diagnosed as a CSV quoting error).
// OpenSource, which only streams, must recognize the legacy files as such so
// callers can fall back to the materializing loader.
func TestOpenSourceLegacyFallback(t *testing.T) {
	dir := t.TempDir()
	want := Generate(Yahoo(), genCfg(10))
	var trace bytes.Buffer
	if err := WriteSource(&trace, NewTraceSource(want)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x.csv", "x.csv.gz", "x.trace", "x.trace.gz"} {
		path := filepath.Join(dir, name)
		legacy := strings.HasPrefix(name, "x.csv")
		if legacy {
			writeTraceFile(t, path, legacyCSV(t, want))
		} else {
			writeTraceFile(t, path, trace.Bytes())
		}
		fs, err := OpenSource(path)
		if err == nil {
			fs.Close()
		}
		if legacy && !errors.Is(err, ErrNotStreamTrace) || !legacy && err != nil {
			t.Fatalf("OpenSource(%s): %v, want ErrNotStreamTrace from a legacy CSV and from nothing else", name, err)
		}
		// Open is that caller: the jobs come back, and the Meta says nothing
		// the format does not carry.
		src, err := Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		got := drainSource(t, src)
		for i := range want.Jobs {
			if len(got) != want.Len() || !jobEqual(got[i], want.Jobs[i]) {
				t.Fatalf("Open(%s) yielded %d jobs, job %d differs from what was saved", name, len(got), i)
			}
		}
		m := src.Meta()
		if fs, ok := src.(*FileSource); ok != !legacy {
			t.Errorf("Open(%s) returned a %T", name, src)
		} else if ok {
			fs.Close()
		} else if m.Name != "" || m.Cutoff != 0 || m.ShortPartitionFraction != 0 || m.NumJobs != 10 {
			t.Errorf("Open(%s) meta = %+v, want only the sizes set", name, m)
		}
	}
	if _, err := Open(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

func TestMaterialize(t *testing.T) {
	cfg := genCfg(150)
	want := Generate(ClouderaC(), cfg)
	got, err := Materialize(NewGeneratorSource(ClouderaC(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Cutoff != want.Cutoff || got.ShortPartitionFraction != want.ShortPartitionFraction {
		t.Fatalf("materialized defaults differ: %+v", got)
	}
	if got.Len() != want.Len() {
		t.Fatalf("materialized %d jobs, want %d", got.Len(), want.Len())
	}
	for i := range got.Jobs {
		if !jobEqual(got.Jobs[i], want.Jobs[i]) {
			t.Fatalf("job %d differs", i)
		}
	}
}

func writeStream(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "t.hawk")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileSourceErrors(t *testing.T) {
	head := func(jobs, maxtasks, tasks int) string {
		return "#hawk-trace v=1 name=\"t\" cutoff=10 frac=0.1 jobs=" +
			itoa(jobs) + " maxtasks=" + itoa(maxtasks) + " tasks=" + itoa(tasks) + "\n"
	}
	cases := []struct {
		name string
		body string
		want string
	}{
		{"truncated", head(2, 1, 2) + "0,0,1,5\n", "header promised"},
		{"excess records", head(1, 1, 2) + "0,0,1,5\n1,1,1,5\n", "more records"},
		{"out of order", head(2, 1, 2) + "0,5,1,5\n1,1,1,5\n", "out of order"},
		{"maxtasks exceeded", head(1, 1, 2) + "0,0,2,5,5\n", "at most"},
		{"bad record", head(1, 1, 1) + "0,0,x,5\n", "task count"},
		{"negative duration", head(1, 1, 1) + "0,0,1,-5\n", "job 0: duration -5 is not a finite number"},
		{"NaN submit time", head(1, 1, 1) + "0,NaN,1,5\n", "job 0: submit time NaN is not a finite number"},
		{"infinite submit time", head(1, 1, 1) + "0,Inf,1,5\n", "job 0: submit time +Inf is not a finite number"},
		{"NaN duration", head(1, 1, 1) + "0,0,1,NaN\n", "job 0: duration NaN is not a finite number"},
		{"infinite duration", head(1, 1, 1) + "0,0,1,+Inf\n", "job 0: duration +Inf is not a finite number"},
		{"quoted field", head(1, 1, 1) + "0,0,1,\"5\"\n", "job 0: quoted field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs, err := OpenSource(writeStream(t, t.TempDir(), c.body))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer fs.Close()
			for {
				if _, ok := fs.Next(); !ok {
					break
				}
			}
			if err := fs.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Err() = %v, want substring %q", err, c.want)
			}
		})
	}
}

// A consumer that stops at Meta.NumJobs must not have to pull once more to
// learn the file was longer: the verdict is in Err with the last job.
func TestFileSourceChecksEndWithLastJob(t *testing.T) {
	const head = "#hawk-trace v=1 name=\"t\" cutoff=10 frac=0.1 jobs=2 maxtasks=1 tasks=2\n"
	for body, want := range map[string]string{
		head + "0,0,1,5\n1,1,1,5\n":          "",
		head + "0,0,1,5\n1,1,1,5\n2,2,1,5\n": "more records than the 2 jobs",
	} {
		fs, err := OpenSource(writeStream(t, t.TempDir(), body))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < 2; i++ {
			if j, ok := fs.Next(); !ok || j.ID != i || fs.Err() != nil && i == 0 {
				t.Fatalf("job %d: got %v, %v, Err %v", i, j, ok, fs.Err())
			}
		}
		if err := fs.Err(); (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("after the last promised job Err() = %v, want %q", err, want)
		}
		fs.Close()
	}
}

// A header's job count is a promise the reader checks as the records
// arrive: one promising 10^11 jobs over a single record ends in the reader's
// diagnosis instead of pre-sizing the trace for all of them. (A header
// without maxtasks= bounding no job is a FuzzStreamTrace seed.)
func TestLoadFileHeaderIsAPromise(t *testing.T) {
	_, err := LoadFile(writeStream(t, t.TempDir(), "#hawk-trace v=1 name=\"g\" jobs=100000000000\n0,0,1,5\n"))
	if want := "file ended after 1 jobs, header promised 100000000000"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadFile: %v, want the reader's %q", err, want)
	}
}

// Decoding a file allocates nothing per job once the pooled job and the
// reader's buffers have grown to the widest record: the fields are cut in
// place and parsed into the recycled Durations (encoding/csv allocated a
// string per record). The trace's first job is its widest,
// so everything after it is steady state. The gzip reader builds each
// block's tables in place, at any level: a level-6 file, as an outside gzip
// writes it, has codes longer than 9 bits, for which compress/flate's reader
// allocated link tables on every block (3 allocations per 50 jobs here).
func TestFileSourceAllocatesNothingPerJob(t *testing.T) {
	tr := Generate(Google(), GenConfig{NumJobs: 2000, MeanInterArrival: 2.3, Seed: 1})
	widest := make([]float64, tr.Meta().MaxTasks+1)
	for i := range widest {
		widest[i] = 1.2345678901234567e-10 // longer than any generated duration's text
	}
	tr.Jobs[0].Durations = widest
	for _, c := range []struct {
		name  string
		level int // 0: as SaveSource writes it
	}{{"g.trace", 0}, {"g.trace.gz", 0}, {"level6.trace.gz", 6}} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.name)
			if c.level == 0 {
				if err := SaveSource(path, NewTraceSource(tr)); err != nil {
					t.Fatal(err)
				}
			} else {
				var z bytes.Buffer
				zw, _ := gzip.NewWriterLevel(&z, c.level)
				if err := WriteSource(zw, NewTraceSource(tr)); err != nil {
					t.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, z.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fs, err := OpenSource(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			next := func() {
				j, ok := fs.Next()
				if !ok {
					t.Fatalf("stream ended early: %v", fs.Err())
				}
				fs.Recycle(j)
			}
			next()
			const runs, perRun = 30, 50
			if allocs := testing.AllocsPerRun(runs, func() {
				for range perRun {
					next()
				}
			}); allocs != 0 {
				t.Errorf("%v allocations per %d jobs decoded, want 0", allocs, perRun)
			}
		})
	}
}

func TestParseStreamHeaderErrors(t *testing.T) {
	cases := []struct{ header, want string }{
		{"not a header", "missing #hawk-trace header"},
		{"#hawk-trace v=2 name=\"x\" jobs=1", "version"},
		{"#hawk-trace name=\"x\" jobs=1", "missing version"},
		{"#hawk-trace v=1 jobs=-3", "jobs=-3 is negative"},
		{"#hawk-trace v=1 frac=1.5", "frac=1.5 is not in [0, 1]"},
		{"#hawk-trace v=1 name=\"unterminated", "bad quoted value"},
		{"#hawk-trace v=1 jobs=abc", "jobs=\"abc\""},
		{"#hawk-trace v=1 garbage", "missing '='"},
		// A NaN fraction used to panic in the partition split, a NaN cutoff
		// to classify every job short, an infinite one the same.
		{"#hawk-trace v=1 frac=NaN", "frac=NaN is not in [0, 1]"},
		{"#hawk-trace v=1 cutoff=NaN", "cutoff=NaN is not a finite number"},
		{"#hawk-trace v=1 cutoff=+Inf", "cutoff=+Inf is not a finite number"},
		{"#hawk-trace v=1 cutoff=-1", "cutoff=-1 is not a finite number"},
	}
	for _, c := range cases {
		if _, err := parseStreamHeader(c.header); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("header %q: err %v, want one saying %q", c.header, err, c.want)
		}
	}
	m, err := parseStreamHeader("#hawk-trace v=1 name=\"a b\" cutoff=5 frac=0.5 jobs=3 maxtasks=2 tasks=6 future=ok")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "a b" || m.NumJobs != 3 || m.MaxTasks != 2 || m.TotalTasks != 6 {
		t.Fatalf("parsed meta = %+v", m)
	}
}

// WriteSource must refuse what the reader would: out-of-order sources,
// meta/job-count mismatches, a Meta the header parser rejects and a job
// parseJobFields rejects, rather than produce a file readers would choke on.
func TestWriteSourceRejectsBadSources(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := Meta{Name: "s", Cutoff: 10, ShortPartitionFraction: 0.1, NumJobs: 1, Sorted: true}
	with := func(edit func(*Meta)) Meta {
		m := good
		edit(&m)
		return m
	}
	one := func(submit float64, durs ...float64) []*Job {
		return []*Job{{ID: 0, SubmitTime: submit, Durations: durs}}
	}
	cases := []struct {
		name string
		meta Meta
		jobs []*Job
		want string
	}{
		{"out of order", with(func(m *Meta) { m.NumJobs = 2 }), append(one(5, 1), one(1, 1)...), "out of order"},
		{"job-count mismatch", with(func(m *Meta) { m.NumJobs = 5 }), one(0, 1), "meta promised 5"},
		{"NaN cutoff", with(func(m *Meta) { m.Cutoff = nan }), one(0, 1), "cutoff=NaN"},
		{"infinite cutoff", with(func(m *Meta) { m.Cutoff = inf }), one(0, 1), "cutoff=+Inf"},
		{"NaN fraction", with(func(m *Meta) { m.ShortPartitionFraction = nan }), one(0, 1), "frac=NaN"},
		{"negative size", with(func(m *Meta) { m.TotalTasks = -1 }), one(0, 1), "tasks=-1"},
		{"NaN submit time", good, one(nan, 1), "submit time NaN"},
		{"infinite submit time", good, one(inf, 1), "submit time +Inf"},
		{"NaN duration", good, one(0, 1, nan), "task 1: duration NaN"},
		{"infinite duration", good, one(0, inf), "task 0: duration +Inf"},
		{"no tasks", good, one(0), "no tasks"},
		{"maxtasks exceeded", with(func(m *Meta) { m.MaxTasks = 1 }), one(0, 1, 2), "at most 1"},
	}
	for _, c := range cases {
		// TraceSource sorts and computes its Meta, so a raw misbehaving source.
		src := &sliceSource{meta: c.meta, jobs: c.jobs}
		var buf bytes.Buffer
		if err := WriteSource(&buf, src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one saying %q", c.name, err, c.want)
		}
	}
}

// A save that fails leaves no file behind: a source that fails after 150 of
// its 300 jobs, the way a file reader does, used to leave a plain or gzipped
// partial trace whose header promised all 300.
func TestSaveSourceRemovesFileOnError(t *testing.T) {
	errSourceFailed := errors.New("source failed mid-stream")
	tr := Generate(Google(), genCfg(300))
	for _, name := range []string{"t.trace", "t.trace.gz"} {
		path := filepath.Join(t.TempDir(), name)
		src := &sliceSource{meta: tr.Meta(), jobs: tr.Jobs[:150], err: errSourceFailed}
		if err := SaveSource(path, src); !errors.Is(err, errSourceFailed) {
			t.Errorf("%s: SaveSource = %v, want the source's error", name, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a failed save left the file behind (stat: %v)", name, err)
		}
	}
}

// oracleWriteSource writes a trace the obvious way — the header, then
// encoding/csv over one []string per job — and is the reference the
// byte-append encoder is held to.
func oracleWriteSource(w io.Writer, t *Trace) error {
	m := t.Meta()
	if _, err := fmt.Fprintf(w, "#hawk-trace v=1 name=%q cutoff=%s frac=%s jobs=%d maxtasks=%d tasks=%d\n",
		m.Name, strconv.FormatFloat(m.Cutoff, 'g', -1, 64), strconv.FormatFloat(m.ShortPartitionFraction, 'g', -1, 64),
		m.NumJobs, m.MaxTasks, m.TotalTasks); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	for _, j := range t.Jobs {
		rec := []string{strconv.Itoa(j.ID), strconv.FormatFloat(j.SubmitTime, 'g', -1, 64), strconv.Itoa(len(j.Durations))}
		for _, d := range j.Durations {
			rec = append(rec, strconv.FormatFloat(d, 'g', -1, 64))
		}
		if j.ConstructedLong {
			rec = append(rec, "L")
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSource writes the bytes encoding/csv wrote: for every spec, the
// motivation workload, and a hand-built trace holding what a generator does
// not produce — a zero and the two exponent forms of 'g', an L marker, a
// quoted name, and a record longer than any bufio buffer on the way out.
func TestWriteSourceMatchesEncodingCSV(t *testing.T) {
	hand := &Trace{Name: `by "hand"`, Cutoff: 1e-07, ShortPartitionFraction: 0.25, Jobs: []*Job{
		{ID: 0, SubmitTime: 0, Durations: []float64{0, 1e-07, 1e+21}, ConstructedLong: true},
		{ID: 1, SubmitTime: 0.1, Durations: make([]float64, 5000)},
		{ID: 7, SubmitTime: 1e+21, Durations: []float64{1}},
	}}
	for i := range hand.Jobs[1].Durations {
		hand.Jobs[1].Durations[i] = 1000 / float64(i+3)
	}
	traces := []*Trace{hand, MotivationWorkload(5)}
	for _, spec := range AllSpecs() {
		traces = append(traces, Generate(spec, genCfg(300)))
	}
	for _, tr := range traces {
		var got, want bytes.Buffer
		if err := WriteSource(&got, NewTraceSource(tr)); err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		if err := oracleWriteSource(&want, tr); err != nil {
			t.Fatalf("%s: oracle: %v", tr.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteSource wrote %d bytes that differ from encoding/csv's %d", tr.Name, got.Len(), want.Len())
		}
	}
}

// Writing a trace allocates the writer's buffers and nothing per job or per
// field: the []string + encoding/csv writer took two allocations a field,
// 229 000 for this trace.
func TestWriteSourceAllocatesPerRunNotPerField(t *testing.T) {
	src := NewTraceSource(Generate(Google(), GenConfig{NumJobs: 4000, MeanInterArrival: 2.3, Seed: 1}))
	allocs := testing.AllocsPerRun(3, func() {
		src.next = 0
		if err := WriteSource(io.Discard, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("WriteSource allocated %v times for %d jobs, want a constant few", allocs, src.meta.NumJobs)
	}
	t.Logf("%v allocs", allocs)
}

// sliceSource is a minimal Source for failure-injection tests: it yields its
// jobs, then reports err (nil unless set) through Err.
type sliceSource struct {
	meta Meta
	jobs []*Job
	next int
	err  error
}

func (s *sliceSource) Meta() Meta { return s.meta }
func (s *sliceSource) Err() error { return s.err }
func (s *sliceSource) Next() (*Job, bool) {
	if s.next >= len(s.jobs) {
		return nil, false
	}
	j := s.jobs[s.next]
	s.next++
	return j, true
}

// The diagnoses of a broken ".gz" trace, as OpenSource and Next give them:
// a cut stream fails at the job it cuts, bytes after the trailer that are too
// short for a header are a truncation, a second member's records are more than
// the header promised, a flipped trailer byte is gzip.ErrChecksum's text, a
// bad magic number gzip.ErrHeader's, and a reserved block type corrupt data
// (whose offset is the reader's own, pinned by TestCorruptOffsetIsAFileOffset).
func TestGzipTraceDiagnoses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.trace.gz")
	if err := SaveSource(path, NewTraceSource(Generate(Google(), genCfg(60)))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte("60,1e9,1,1.5\n"))
	zw.Close()
	member2 := z.Bytes()
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte{}, raw...)) }
	flip := func(i int) []byte { return edit(func(b []byte) []byte { b[i] ^= 0xff; return b }) }
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"cut", raw[:len(raw)/2], "job 37: unexpected EOF"},
		{"trailing bytes", edit(func(b []byte) []byte { return append(b, "xyz"...) }), "job 60: unexpected EOF"},
		{"second member", edit(func(b []byte) []byte { return append(b, member2...) }), "more records than the 60 jobs the header promised"},
		{"crc", flip(len(raw) - 8), "gzip: invalid checksum"},
		{"isize", flip(len(raw) - 1), "gzip: invalid checksum"},
		{"magic", flip(0), "gzip: invalid header"},
		{"block type", edit(func(b []byte) []byte { b[10] |= 6; return b }), "flate: corrupt input before offset"},
	} {
		p := filepath.Join(dir, c.name+".trace.gz")
		if err := os.WriteFile(p, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		err := drainErr(p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error saying %q", c.name, err, c.want)
		}
	}
}

// drainErr opens a trace and pulls every job, returning the error that ends
// it.
func drainErr(path string) error {
	src, err := OpenSource(path)
	if err != nil {
		return err
	}
	defer src.Close()
	for j, ok := src.Next(); ok; j, ok = src.Next() {
		src.Recycle(j)
	}
	return src.Err()
}
