package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the trace parser with arbitrary input: it must
// never panic, and anything it accepts must be a valid trace that survives
// a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,0,2,10,20\n")
	f.Add("1,0,2,10,20,L\n2,5.5,1,7\n")
	f.Add("")
	f.Add("x,y,z\n")
	f.Add("1,0,1,1e300\n")
	f.Add("1,0,3,1,2\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails validation: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(legacyCSV(t, tr)))
		if err != nil {
			t.Fatalf("serialized trace fails to parse: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed job count: %d != %d", back.Len(), tr.Len())
		}
	})
}

// FuzzStreamTrace exercises the hawk-trace header and record parser: it
// must never panic, and any stream it fully accepts must round-trip
// through WriteSource/OpenSource with the job count preserved.
func FuzzStreamTrace(f *testing.F) {
	f.Add("#hawk-trace v=1 name=\"g\" cutoff=10 frac=0.1 jobs=1 maxtasks=2 tasks=2\n0,0,2,5,6\n")
	f.Add("#hawk-trace v=1 name=\"g\" cutoff=10 frac=0.1 jobs=2 maxtasks=1 tasks=2\n0,0,1,5\n1,2.5,1,6,L\n")
	f.Add("#hawk-trace v=1 jobs=0\n")
	f.Add("#hawk-trace v=1 name=\"a b\" cutoff=1e3 frac=0.5 jobs=1 maxtasks=1 tasks=1\n7,3,1,9\n")
	f.Add("#hawk-trace v=2 jobs=1\n0,0,1,5\n")
	f.Add("#hawk-trace v=1 jobs=1 future=\"key\"\n0,0,1,5\n")
	f.Add("1,0,2,10,20\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.hawk")
		if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenSource(path)
		if err != nil {
			return
		}
		defer src.Close()
		n, prev := 0, 0.0
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			if len(j.Durations) == 0 || j.SubmitTime < prev {
				t.Fatalf("accepted invalid job %d: %+v", n, j)
			}
			prev = j.SubmitTime
			n++
			src.Recycle(j)
		}
		if src.Err() != nil {
			return
		}
		if n != src.Meta().NumJobs {
			t.Fatalf("clean stream yielded %d jobs, header said %d", n, src.Meta().NumJobs)
		}
		// Round trip: re-open, write what we read, read it back.
		reread, err := OpenSource(path)
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		defer reread.Close()
		out := filepath.Join(dir, "out.hawk")
		if err := SaveSource(out, reread); err != nil {
			t.Fatalf("accepted stream fails to serialize: %v", err)
		}
		back, err := OpenSource(out)
		if err != nil {
			t.Fatalf("serialized stream fails to open: %v", err)
		}
		defer back.Close()
		m := 0
		for {
			if _, ok := back.Next(); !ok {
				break
			}
			m++
		}
		if back.Err() != nil {
			t.Fatalf("serialized stream fails to parse: %v", back.Err())
		}
		if m != n {
			t.Fatalf("round trip changed job count: %d != %d", m, n)
		}
	})
}
