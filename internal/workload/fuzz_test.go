package workload

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes, as an outside tool's CSV records, to
// the one reader behind the minimal header, whose jobs= counts the non-blank
// lines, and materializes them as LoadFile does: it must never panic, and
// anything it accepts must be a valid trace that survives a write/read round
// trip bit for bit.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,0,2,10,20\n")
	f.Add("1,0,2,10,20,L\n2,5.5,1,7\n")
	f.Add("")
	f.Add("x,y,z\n")
	f.Add("1,0,1,1e300\n")
	f.Add("1,0,3,1,2\n")
	f.Fuzz(func(t *testing.T, records string) {
		n := 0
		for _, line := range strings.Split(records, "\n") {
			if strings.TrimSuffix(line, "\r") != "" {
				n++
			}
		}
		src, err := stringSource(minimalHeader(n) + records)
		if err != nil {
			t.Fatalf("the minimal header is refused: %v", err)
		}
		tr, err := Materialize(src)
		if err != nil {
			return
		}
		back, err := readFileSource(traceText(t, tr))
		if err != nil || !sameJobs(back, tr.Jobs) {
			t.Fatalf("round trip read %d of %d jobs back, err %v", len(back), tr.Len(), err)
		}
	})
}

// FuzzStreamTrace holds FileSource to the reader it replaced: on every input
// the two accept the same files and yield the same jobs bit for bit, except
// that a record holding a quote, which encoding/csv may unquote, must be
// rejected. What it accepts must also survive SaveSource and come back the
// same.
func FuzzStreamTrace(f *testing.F) {
	const head = "#hawk-trace v=1 name=\"g\" cutoff=10 frac=0.1 "
	f.Add(head + "jobs=1 maxtasks=2 tasks=2\n0,0,2,5,6\n")
	f.Add(head + "jobs=2 maxtasks=1 tasks=2\n0,0,1,5\n1,2.5,1,6,L\n")
	f.Add("#hawk-trace v=1 jobs=0\n")
	f.Add("#hawk-trace v=1 name=\"a b\" cutoff=1e3 frac=0.5 jobs=1 maxtasks=1 tasks=1\n7,3,1,9\n")
	f.Add("#hawk-trace v=2 jobs=1\n0,0,1,5\n")
	f.Add("#hawk-trace v=1 jobs=1 future=\"key\"\n0,0,1,5\n")
	f.Add("1,0,2,10,20\n")
	f.Add("")
	f.Add(head + "jobs=2 maxtasks=2 tasks=3\r\n0,0,1,5\r\n1,2.5,2,6,7\r\n")
	f.Add(head + "jobs=2 maxtasks=2 tasks=3\n0,0,1,5\n\n\r\n1,2.5,2,6,7\n\n")
	f.Add(head + "jobs=2 maxtasks=2 tasks=3\n0,0,1,5\n1,2.5,2,6,7\r")
	f.Add(head + "jobs=1 maxtasks=3500 tasks=3500\n0,0,3500" + strings.Repeat(",18.123456789012345", 3500) + "\n")
	f.Add(head + "jobs=2 maxtasks=2 tasks=3\n0,0,2,5,6,L\n1,0,1,7,L\n")
	f.Add(head + "jobs=1 maxtasks=1 tasks=1\n0,0,1,\"5\"\n")
	f.Add(head + "jobs=2\n0,0,1,5\n1,2.5,2,6,7\n")
	// Non-finite numbers, each of which once ran: a NaN or infinite submit
	// time and an infinite duration hung hawksim, a NaN duration printed NaN
	// percentiles, frac=NaN panicked and cutoff=NaN classified every job short.
	f.Add(head + "jobs=2\n0,0,1,5\n1,NaN,1,6\n")
	f.Add(head + "jobs=2\n0,0,1,5\n1,Inf,1,6\n")
	f.Add(head + "jobs=2\n0,0,1,5\n1,2,1,+Inf\n")
	f.Add(head + "jobs=2\n0,0,1,5\n1,2,1,NaN\n")
	f.Add("#hawk-trace v=1 name=\"g\" cutoff=10 frac=NaN jobs=2\n0,0,1,5\n1,2,1,6\n")
	f.Add("#hawk-trace v=1 name=\"g\" cutoff=NaN frac=0.1 jobs=2\n0,0,1,5\n1,2,1,60\n")
	// A repeated job id, which a streamed run once accepted (three rows for
	// job 1 in hawksim -dump) while a materialized one refused it.
	f.Add("#hawk-trace v=1 cutoff=10 frac=0.1 jobs=3\n1,0,1,5\n1,1,1,5\n1,2,1,50\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := readFileSource(input)
		if _, records, _ := strings.Cut(input, "\n"); strings.Contains(records, `"`) {
			if err == nil {
				t.Fatalf("accepted a quoted record: %q", records)
			}
			return
		}
		want, wantErr := oracleDecode(input)
		if (err == nil) != (wantErr == nil) || !sameJobs(got, want) {
			t.Fatalf("FileSource yielded %d jobs, err %v; encoding/csv %d jobs, err %v", len(got), err, len(want), wantErr)
		}
		if err != nil {
			return
		}
		src, _ := stringSource(input)
		var out strings.Builder
		if err := WriteSource(&out, src); err != nil {
			t.Fatalf("accepted stream fails to serialize: %v", err)
		}
		back, err := readFileSource(out.String())
		if err != nil || !sameJobs(back, got) {
			t.Fatalf("round trip read %d of %d jobs back, err %v", len(back), len(got), err)
		}
	})
}

// stringSource is OpenSource over input instead of a file, so fuzzing
// touches no disk; the read buffer is the size OpenSource gives a file.
func stringSource(input string) (*FileSource, error) {
	s := &FileSource{r: bufio.NewReaderSize(strings.NewReader(input), readBufferSize)}
	first, _ := s.r.ReadString('\n')
	var err error
	s.meta, err = parseStreamHeader(first)
	return s, err
}

// readFileSource drains a FileSource over input the way a run does,
// recycling every job, and returns copies of the jobs in order with the
// error that ended the stream.
func readFileSource(input string) ([]*Job, error) {
	src, err := stringSource(input)
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for j, ok := src.Next(); ok; j, ok = src.Next() {
		jobs = append(jobs, &Job{ID: j.ID, SubmitTime: j.SubmitTime, ConstructedLong: j.ConstructedLong,
			Durations: append([]float64(nil), j.Durations...)})
		src.Recycle(j)
	}
	return jobs, src.Err()
}

// oracleDecode is the hawk-trace reader FileSource replaced: the header as
// FileSource reads it, then encoding/csv for the records and the field loop
// over []string that parseJobFields was, under the same count, order and
// size checks. It returns the jobs yielded and the error that ended the
// stream.
func oracleDecode(input string) ([]*Job, error) {
	r := bufio.NewReader(strings.NewReader(input))
	first, _ := r.ReadString('\n')
	m, err := parseStreamHeader(first)
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var jobs []*Job
	var order JobOrder
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			if len(jobs) != m.NumJobs {
				return jobs, fmt.Errorf("file ended after %d jobs, header promised %d", len(jobs), m.NumJobs)
			}
			return jobs, nil
		}
		if err != nil {
			return jobs, err
		}
		if len(jobs) >= m.NumJobs {
			return jobs, fmt.Errorf("more records than the %d jobs the header promised", m.NumJobs)
		}
		j := &Job{}
		if err := oracleParseJobFields(rec, j); err != nil {
			return jobs, err
		}
		if err := order.Check(m.Name, j); err != nil {
			return jobs, err
		}
		if m.MaxTasks > 0 && len(j.Durations) > m.MaxTasks {
			return jobs, fmt.Errorf("job %d has %d tasks, header promised at most %d", j.ID, len(j.Durations), m.MaxTasks)
		}
		jobs = append(jobs, j)
	}
}

// oracleParseJobFields is parseJobFields as it was on []string fields, under
// the same rule for numbers: a submit time or duration must be finite and
// not negative.
func oracleParseJobFields(rec []string, j *Job) error {
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || x < 0 }
	if len(rec) < 4 {
		return fmt.Errorf("record too short (%d fields)", len(rec))
	}
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return err
	}
	submit, err := strconv.ParseFloat(rec[1], 64)
	if err != nil {
		return err
	}
	if bad(submit) {
		return fmt.Errorf("bad submit time %g", submit)
	}
	n, err := strconv.Atoi(rec[2])
	if err != nil || n < 1 {
		return fmt.Errorf("bad task count %q", rec[2])
	}
	rest := rec[3:]
	long := false
	if len(rest) == n+1 && rest[n] == "L" {
		long = true
		rest = rest[:n]
	}
	if len(rest) != n {
		return fmt.Errorf("expected %d durations, got %d", n, len(rest))
	}
	j.Durations = make([]float64, n)
	for i, f := range rest {
		d, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return err
		}
		if bad(d) {
			return fmt.Errorf("bad duration %g", d)
		}
		j.Durations[i] = d
	}
	j.ID, j.SubmitTime, j.ConstructedLong = id, submit, long
	return nil
}

// sameJobs reports whether a and b hold the same jobs bit for bit, the sign
// of zero included.
func sameJobs(a, b []*Job) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, x := range a {
		y := b[i]
		if x.ID != y.ID || !same(x.SubmitTime, y.SubmitTime) || x.ConstructedLong != y.ConstructedLong ||
			len(x.Durations) != len(y.Durations) {
			return false
		}
		for k, d := range x.Durations {
			if !same(d, y.Durations[k]) {
				return false
			}
		}
	}
	return true
}
