package policy

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// encodeWhole is the WriteJSON this package had before it streamed: one
// Encoder over the whole report. It is the byte-for-byte oracle.
func encodeWhole(w io.Writer, r *Report) error {
	jr := jsonReport{Report: *r, UtilizationSamples: r.Utilization.Samples()}
	if med := r.Utilization.Median(); !math.IsNaN(med) {
		jr.MedianUtilization = med
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// syntheticJobs returns n job reports with every field exercised, floats
// with long and short spellings, and an occasional outage mark.
func syntheticJobs(n int) []JobReport {
	jobs := make([]JobReport, n)
	for i := range jobs {
		jobs[i] = JobReport{
			ID: i, SubmitTime: float64(i) * 2.3, Runtime: 1e-7 + float64(i%977)*1234.56789,
			Tasks: 1 + i%4113, Long: i%10 == 0, TrueLong: i%9 == 0, Estimate: float64(i%53) / 3,
			DuringOutage: i%101 == 0,
		}
	}
	return jobs
}

// floatEdges are values at the ends of the paths workload.AppendFloat takes:
// subnormals (strconv's), the JSON writer's 'f'/'e' switch, the
// exact-integer shortcut's end, a tie, an interval end exactly on 1e23, and
// the first and last values inside the power-of-ten table at either end and
// the values just outside.
var floatEdges = []float64{
	5e-324, 1e-323, 1e-322, math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e21, 0), 1e21,
	1<<53 - 1, 1 << 53, 1<<53 + 2, math.Copysign(0, -1), math.MaxFloat64,
	1<<50 + 0.25, 1e23, math.Nextafter(1e23, 1e24),
	math.Float64frombits(0x3620000000000000), math.Float64frombits(0x362fffffffffffff),
	math.Float64frombits(0x50b0000000000000), math.Float64frombits(0x50bfffffffffffff),
}

// edgeJobs returns a job per floatEdges value, the values rotated through
// its submit time, runtime and estimate.
func edgeJobs() []JobReport {
	n := len(floatEdges)
	jobs := make([]JobReport, n)
	for i := range jobs {
		jobs[i] = JobReport{ID: 1000 + i, SubmitTime: floatEdges[i], Runtime: floatEdges[(i+1)%n], Tasks: 1, Estimate: floatEdges[(i+2)%n]}
	}
	return jobs
}

func retainedReport(jobs []JobReport) *Report {
	r := &Report{
		Engine: "sim", Policy: "sparrow", Config: Config{Policy: "sparrow", NumNodes: 15000, Seed: 7},
		Jobs: jobs, Makespan: 123456.5, ProbesSent: 2170000, TasksExecuted: 1085000, Events: 9e6,
	}
	for i := 0; i < 40; i++ {
		r.Utilization.AddAt(float64(100*i), float64(i%7)/7)
	}
	return r
}

func TestWriteJSONMatchesEncoder(t *testing.T) {
	streamed := retainedReport(nil)
	streamed.Streamed = NewStreamedStats(DefaultReservoirSize, 7)
	for _, j := range syntheticJobs(500) {
		streamed.Streamed.ObserveJob(j)
	}
	// A string that spells the splice marker must stay a string.
	sidecars := retainedReport(syntheticJobs(3))
	sidecars.Config.Policy = "x\n  \"jobs\": null"
	sidecars.Config.Schedulers = &SchedulerSpec{Count: 4, SnapshotInterval: 30}
	sidecars.Config.Faults = &FaultSpec{ProbeLoss: 0.01, MaxRetries: 8}
	sidecars.Config.Churn = &ChurnSpec{Events: []ChurnEvent{{At: 5, Kind: ChurnFail, Count: 3}}}
	sidecars.NodeFailures, sidecars.NodeRecoveries, sidecars.TasksReexecuted, sidecars.ProbesLost = 1, 2, 3, 4
	sidecars.WorkLostSeconds, sidecars.CentralDeferred, sidecars.CentralOutageSeconds = 5.5, 6, 7.5
	sidecars.PlacementConflicts, sidecars.ConflictRetries, sidecars.SnapshotRefreshes = 8, 9, 10
	sidecars.SnapshotStalenessSeconds, sidecars.SchedulerFailures, sidecars.SchedulerRecoveries = 11.5, 12, 13
	sidecars.SchedulerReassigned, sidecars.ProbeRetries, sidecars.AssignRetries = 14, 16, 17
	sidecars.SpeculativeLaunches, sidecars.SpeculativeWins = 19, 20
	sidecars.SpeculativeWasted, sidecars.StragglerSlowdowns = 21, 22
	sidecars.MessagesDropped = &MessageDrops{Probes: 1, Replies: 2, Steals: 3, Assigns: 4, Commits: 5}

	for name, r := range map[string]*Report{
		"nil jobs":     retainedReport(nil),
		"empty jobs":   retainedReport([]JobReport{}),
		"one job":      retainedReport(syntheticJobs(1)),
		"10000 jobs":   retainedReport(syntheticJobs(10000)),
		"streamed":     streamed,
		"all sidecars": sidecars,
		"live":         {Engine: "live", Policy: "hawk", Jobs: syntheticJobs(2)},
	} {
		var got, want bytes.Buffer
		if err := encodeWhole(&want, r); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if err := r.WriteJSON(&got); err != nil {
			t.Fatalf("%s: WriteJSON: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteJSON differs from the whole-report Encoder (%d vs %d bytes)", name, got.Len(), want.Len())
		}
	}

	// What encoding/json refuses, both refuse, with the same words.
	nan := retainedReport(syntheticJobs(3))
	nan.Jobs[1].Runtime = math.NaN()
	want, got := encodeWhole(io.Discard, nan), nan.WriteJSON(io.Discard)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("NaN runtime: WriteJSON error %v, the Encoder's %v", got, want)
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Writing the report must cost O(one job), not a multiple of the file: the
// whole-report Encoder allocated about 28 MB for these 20 000 jobs.
func TestWriteJSONAllocBound(t *testing.T) {
	r := retainedReport(syntheticJobs(20000))
	var err error
	got := allocatedBytes(func() { err = r.WriteJSON(io.Discard) })
	if err != nil {
		t.Fatal(err)
	}
	if got >= 1<<20 {
		t.Errorf("WriteJSON of 20 000 jobs allocated %d bytes, want below 1 MiB", got)
	}
}

// spliceEncoder is WriteJSON as it was before appendJobJSON: the same shell
// and splice, each job through a json.Encoder with the element's indent and
// its trailing newline trimmed. It is appendJobJSON's oracle.
func spliceEncoder(w io.Writer, r *Report) error {
	jr := jsonReport{Report: *r, UtilizationSamples: r.Utilization.Samples()}
	jr.Jobs = nil
	if med := r.Utilization.Median(); !math.IsNaN(med) {
		jr.MedianUtilization = med
	}
	shell, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return err
	}
	const jobsKey = "\n  \"jobs\": "
	head, tail, _ := bytes.Cut(shell, []byte(jobsKey+"null"))
	var job bytes.Buffer
	enc := json.NewEncoder(&job)
	enc.SetIndent("    ", "  ")
	bw := bufio.NewWriter(w)
	bw.Write(head)
	bw.WriteString(jobsKey)
	before, after := "[\n    ", "[]"
	if r.Jobs == nil {
		after = "null"
	}
	for i := range r.Jobs {
		job.Reset()
		if err := enc.Encode(&r.Jobs[i]); err != nil {
			return err
		}
		bw.WriteString(before)
		bw.Write(bytes.TrimSuffix(job.Bytes(), []byte("\n")))
		before, after = ",\n    ", "\n  ]"
	}
	bw.WriteString(after)
	bw.Write(tail)
	bw.WriteByte('\n')
	return bw.Flush()
}

// appendJobJSON writes what the json.Encoder it replaced wrote, for floats
// at the edges of encoding/json's 'f'/'e' rule and both outage marks, and
// fails where it failed with the same words.
func TestJobJSONMatchesEncoder(t *testing.T) {
	var edges []JobReport
	for i, f := range []float64{0, math.Copysign(0, -1), 1e-7, 5e-324, 1e21, 1.5e300, 1e-6, 9.99e-7, 1e20, -2.5e-9, 123456.789} {
		edges = append(edges, JobReport{ID: -i, SubmitTime: f, Runtime: -f, Tasks: i, Long: i%2 == 0, Estimate: f * 3, DuringOutage: i%2 == 1})
	}
	edges = append(edges, edgeJobs()...)
	for name, r := range map[string]*Report{
		"200 jobs":   retainedReport(syntheticJobs(200)),
		"edges":      retainedReport(edges),
		"nil jobs":   retainedReport(nil),
		"empty jobs": retainedReport([]JobReport{}),
	} {
		var got, want bytes.Buffer
		if err := spliceEncoder(&want, r); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if err := r.WriteJSON(&got); err != nil {
			t.Fatalf("%s: WriteJSON: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteJSON differs from the per-job Encoder:\n got %s\nwant %s", name, got.Bytes(), want.Bytes())
		}
	}
	for name, bad := range map[string]JobReport{
		"NaN submit":    {SubmitTime: math.NaN()},
		"+Inf runtime":  {Runtime: math.Inf(1)},
		"-Inf estimate": {Estimate: math.Inf(-1)},
		"NaN and Inf":   {Runtime: math.Inf(1), Estimate: math.NaN()},
	} {
		r := retainedReport([]JobReport{{ID: 1}, bad})
		want, got := spliceEncoder(io.Discard, r), r.WriteJSON(io.Discard)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: WriteJSON error %v, the Encoder's %v", name, got, want)
		}
	}
}

// A save that fails leaves no file behind: neither a report encoding/json
// refuses nor a CSV whose writer fails mid-file.
func TestFailedSaveLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	nan := retainedReport(syntheticJobs(3))
	nan.Jobs[1].Runtime = math.NaN()
	path := filepath.Join(dir, "out.json")
	if err := SaveReportJSON(path, nan); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("SaveReportJSON of a NaN runtime: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("SaveReportJSON failed but left %s (stat: %v)", path, err)
	}

	path = filepath.Join(dir, "out.csv")
	full := errors.New("disk full")
	err := writeFile(path, func(w io.Writer) error {
		return WriteResultsCSV(&failingWriter{w: w, left: 100, err: full}, retainedReport(syntheticJobs(50)))
	})
	if !errors.Is(err, full) {
		t.Errorf("CSV save through a failing writer: %v, want %v", err, full)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("CSV save failed but left %s (stat: %v)", path, err)
	}
}

// failingWriter passes the first left bytes to w, then fails with err.
type failingWriter struct {
	w    io.Writer
	left int
	err  error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n, _ := f.w.Write(p[:f.left])
		f.left = 0
		return n, f.err
	}
	f.left -= len(p)
	return f.w.Write(p)
}

// The one row formatter writes what encoding/csv writes, for values at the
// edges of every column's formatting.
func TestJobRowMatchesEncodingCSV(t *testing.T) {
	jobs := append(syntheticJobs(200),
		JobReport{ID: -1, SubmitTime: math.Inf(1), Runtime: math.NaN(), Tasks: 0, Estimate: math.Inf(-1)},
		JobReport{ID: math.MaxInt64, SubmitTime: 1e21, Runtime: 5e-324, Tasks: math.MaxInt32, Long: true, TrueLong: true, Estimate: 0.1},
	)
	jobs = append(jobs, edgeJobs()...)
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write([]string{"jobID", "submitTime", "runtime", "tasks", "long", "trueLong", "estimate"})
	for _, j := range jobs {
		cw.Write([]string{
			strconv.Itoa(j.ID),
			strconv.FormatFloat(j.SubmitTime, 'g', -1, 64),
			strconv.FormatFloat(j.Runtime, 'g', -1, 64),
			strconv.Itoa(j.Tasks),
			strconv.FormatBool(j.Long),
			strconv.FormatBool(j.TrueLong),
			strconv.FormatFloat(j.Estimate, 'g', -1, 64),
		})
	}
	cw.Flush()
	var got bytes.Buffer
	if err := WriteResultsCSV(&got, &Report{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteResultsCSV differs from encoding/csv:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

func TestJobCSVSinkZeroAllocs(t *testing.T) {
	sink, err := NewJobCSVSink(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	jobs := syntheticJobs(512)
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		if err := sink.Sink(jobs[i%len(jobs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("JobCSVSink.Sink allocated %v times per job, want 0", allocs)
	}
}

// The report writers replace an existing output file rather than truncate
// it in place (workload.CreateFile): a hard link to the old file keeps the
// old bytes while the path gets the new report.
func TestSavesReplaceExistingFiles(t *testing.T) {
	dir := t.TempDir()
	r := retainedReport(syntheticJobs(4))
	for name, save := range map[string]func(path string) error{
		"SaveReportJSON": func(path string) error { return SaveReportJSON(path, r) },
		"SaveResultsCSV": func(path string) error { return SaveResultsCSV(path, r) },
		"CreateJobCSVSink": func(path string) error {
			sink, err := CreateJobCSVSink(path)
			if err != nil {
				return err
			}
			for _, j := range r.Jobs {
				if err := sink.Sink(j); err != nil {
					return err
				}
			}
			return sink.Close()
		},
	} {
		path, link := filepath.Join(dir, name+".out"), filepath.Join(dir, name+".old")
		if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Link(path, link); err != nil {
			t.Fatal(err)
		}
		if err := save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if old, err := os.ReadFile(link); err != nil || string(old) != "old\n" {
			t.Errorf("%s: the old file's link holds %q (err %v): it was written in place", name, old, err)
		}
		if got, err := os.ReadFile(path); err != nil || len(got) <= len("old\n") {
			t.Errorf("%s: the path holds %q (err %v), want the new report", name, got, err)
		}
	}
}
