package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// legacyCSV returns tr as the headerless CSV outside tools hand in. Nothing
// in the repo writes that format; it is a hawk-trace file without its first
// line.
func legacyCSV(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSource(&buf, NewTraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	_, records, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	return records
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(Google(), GenConfig{NumJobs: 200, MeanInterArrival: 2, Seed: 4})
	got, err := ReadCSV(bytes.NewReader(legacyCSV(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip: %d jobs, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], got.Jobs[i]
		if a.ID != b.ID || a.ConstructedLong != b.ConstructedLong {
			t.Fatalf("job %d metadata mismatch", i)
		}
		if math.Abs(a.SubmitTime-b.SubmitTime) > 1e-12 {
			t.Fatalf("job %d submit mismatch", i)
		}
		if len(a.Durations) != len(b.Durations) {
			t.Fatalf("job %d task count mismatch", i)
		}
		for k := range a.Durations {
			if a.Durations[k] != b.Durations[k] {
				t.Fatalf("job %d duration %d mismatch: %v != %v", i, k, a.Durations[k], b.Durations[k])
			}
		}
	}
}

// Property: any structurally valid trace survives a CSV round trip.
func TestCSVRoundTripProperty(t *testing.T) {
	check := func(jobs [][]float64) bool {
		tr := &Trace{}
		for i, durs := range jobs {
			if len(durs) == 0 {
				durs = []float64{1}
			}
			clean := make([]float64, len(durs))
			for k, d := range durs {
				d = math.Abs(d)
				if math.IsNaN(d) || math.IsInf(d, 0) {
					d = 1
				}
				clean[k] = d
			}
			tr.Jobs = append(tr.Jobs, &Job{
				ID:              i,
				SubmitTime:      float64(i),
				Durations:       clean,
				ConstructedLong: i%3 == 0,
			})
		}
		got, err := ReadCSV(bytes.NewReader(legacyCSV(t, tr)))
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Jobs {
			if got.Jobs[i].ConstructedLong != tr.Jobs[i].ConstructedLong {
				return false
			}
			if got.Jobs[i].TaskSeconds() != tr.Jobs[i].TaskSeconds() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"short record", "1,2\n"},
		{"bad id", "x,0,1,5\n"},
		{"bad submit", "1,x,1,5\n"},
		{"bad count", "1,0,x,5\n"},
		{"zero count", "1,0,0,5\n"},
		{"count mismatch", "1,0,3,5,6\n"},
		{"bad duration", "1,0,1,x\n"},
		{"negative duration", "1,0,1,-5\n"},
		{"duplicate id", "1,0,1,5\n1,1,1,5\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty input should parse: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("empty input gave %d jobs", tr.Len())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	tr := Generate(Yahoo(), GenConfig{NumJobs: 50, MeanInterArrival: 1, Seed: 6})
	if err := os.WriteFile(path, legacyCSV(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("loaded %d jobs, want %d", got.Len(), tr.Len())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file should error")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestLongMarkerFormat(t *testing.T) {
	// A job with a trailing L is long; durations that happen to be
	// parseable are not confused with the marker.
	in := "7,1.5,2,10,20,L\n8,2.5,1,30\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Jobs[0].ConstructedLong || tr.Jobs[1].ConstructedLong {
		t.Fatal("L marker parsed incorrectly")
	}
}
