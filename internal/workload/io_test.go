package workload

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// minimalHeader is the one line an outside tool's records need in front of
// them to be a trace: the version, the cutoff, the partition fraction and
// the job count.
func minimalHeader(jobs int) string {
	return "#hawk-trace v=1 cutoff=10 frac=0.1 jobs=" + itoa(jobs) + "\n"
}

// traceText returns tr as WriteSource writes it.
func traceText(t *testing.T, tr *Trace) string {
	t.Helper()
	var buf strings.Builder
	if err := WriteSource(&buf, NewTraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(Google(), GenConfig{NumJobs: 200, MeanInterArrival: 2, Seed: 4})
	got, err := readFileSource(traceText(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if !sameJobs(got, tr.Jobs) {
		t.Fatalf("round trip read %d jobs back, want the %d written bit for bit", len(got), tr.Len())
	}
}

// Property: any structurally valid trace survives a write/read round trip.
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
		got, err := readFileSource(traceText(t, tr))
		return err == nil && sameJobs(got, tr.Jobs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every malformed record is refused, and the duplicate id, which no single
// record shows, by LoadFile's Validate.
func TestRecordErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"short record", "1,2\n", "record too short"},
		{"bad id", "x,0,1,5\n", "bad job id"},
		{"bad submit", "1,x,1,5\n", "bad submit time"},
		{"bad count", "1,0,x,5\n", "bad task count"},
		{"zero count", "1,0,0,5\n", "bad task count"},
		{"count mismatch", "1,0,3,5,6\n", "expected 3 durations, got 2"},
		{"bad duration", "1,0,1,x\n", "bad duration"},
		{"negative duration", "1,0,1,-5\n", "duration -5 is not a finite number"},
		// Ids ascend, so the streamed reader refuses a repeated id without
		// keeping a set: a run that streams the file never sees job 1 twice.
		{"duplicate id", "1,0,1,5\n1,1,1,5\n1,2,1,50\n", "job id 1 after job id 1"},
		{"descending id", "2,0,1,5\n1,1,1,5\n", "job id 1 after job id 2"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".trace")
		if err := os.WriteFile(path, []byte(minimalHeader(strings.Count(c.in, "\n"))+c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadFile of %q: %v, want an error saying %q", c.name, c.in, err, c.want)
		}
		src, err := OpenSource(path)
		if err != nil {
			t.Fatalf("%s: OpenSource: %v", c.name, err)
		}
		for _, ok := src.Next(); ok; _, ok = src.Next() {
		}
		if err := src.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: streaming %q: %v, want an error saying %q", c.name, c.in, err, c.want)
		}
		src.Close()
	}
}

// A header that promises no jobs, over no records, is an empty trace.
func TestLoadFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace")
	if err := os.WriteFile(path, []byte(minimalHeader(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadFile(path)
	if err != nil {
		t.Fatalf("a header over no records should load: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("empty trace gave %d jobs", tr.Len())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.hawk")
	tr := Generate(Yahoo(), GenConfig{NumJobs: 50, MeanInterArrival: 1, Seed: 6})
	if err := SaveSource(path, NewTraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Cutoff != tr.Cutoff || got.ShortPartitionFraction != tr.ShortPartitionFraction ||
		!sameJobs(got.Jobs, tr.Jobs) {
		t.Fatalf("loaded %q (%d jobs), want %q as saved (%d jobs)", got.Name, got.Len(), tr.Name, tr.Len())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.trace")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLongMarkerFormat(t *testing.T) {
	// A job with a trailing L is long; durations that happen to be
	// parseable are not confused with the marker.
	jobs, err := readFileSource(minimalHeader(2) + "7,1.5,2,10,20,L\n8,2.5,1,30\n")
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].ConstructedLong || jobs[1].ConstructedLong || len(jobs[0].Durations) != 2 {
		t.Fatal("L marker parsed incorrectly")
	}
}
