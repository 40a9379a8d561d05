package sim

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// Every run pulls from a workload.Source, so "same jobs, same config, same
// report" holds by construction for sources that yield the same jobs
// (internal/workload pins that they do; the golden suite replays every
// golden through a file). What is left to pin here is what differs between
// sources — a pooling source reuses a Job the moment the engine hands it
// back, a Trace keeps its own, and only a whole Trace can be checked before
// the run — and the memory bound (heap pin + zero-alloc steady state) that
// is the point of pulling.

// A source that pools its jobs must give the report of one that retains
// them: the engine reads nothing of a Job after recycling it.
func TestStreamedGeneratorMatchesMaterialized(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 400, MeanInterArrival: 1, Seed: 3}
	tr := workload.Generate(workload.Google(), gcfg)
	for _, pol := range []string{"sparrow", "hawk", "centralized", "split"} {
		cfg := policy.Config{NumNodes: 2000, Policy: pol, Seed: 4}
		want := mustRun(t, tr, cfg)
		got, err := RunSource(workload.NewGeneratorSource(workload.Google(), gcfg), cfg)
		if err != nil {
			t.Fatalf("%s: RunSource: %v", pol, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the generator source's report differs from the trace's", pol)
		}
	}
}

func TestStreamedFileMatchesMaterialized(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 300, MeanInterArrival: 1, Seed: 8}
	tr := workload.Generate(workload.Google(), gcfg)
	cfg := policy.Config{NumNodes: 2000, Policy: "hawk", Seed: 5}
	want := mustRun(t, tr, cfg)

	// Round-trip through the gzipped stream format: the float encoding is
	// exact (strconv 'g'/-1), so the decoded jobs — and therefore the
	// whole report — must match the in-memory run bit for bit.
	path := filepath.Join(t.TempDir(), "google.csv.gz")
	if err := workload.SaveSource(path, workload.NewGeneratorSource(workload.Google(), gcfg)); err != nil {
		t.Fatalf("SaveSource: %v", err)
	}
	src, err := workload.OpenSource(path)
	if err != nil {
		t.Fatalf("OpenSource: %v", err)
	}
	defer src.Close()
	got, err := RunSource(src, cfg)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the file source's report differs from the trace's")
	}
}

// The feasibility verdict — and its text — is a property of (jobs, config),
// not of the form the jobs arrive in: every job is judged by the same rule
// as it is pulled, whether a Trace, a file or a generator yields it. The churn rows
// used to be rejected as a Trace and accepted from a file or a generator
// (the pulled-job check skipped the failure margin), ending in <nil> or a
// deadlock diagnosis depending on when the failures landed. Nor does it
// depend on what the source knows up front: Meta documents 0 as "bound
// unknown", and a source of the user's own that says so used to skip the rule
// altogether and end in a bare "sim: deadlock". The id rows renumber jobs
// out of the workload order, which every form refuses with the file
// reader's message: a streamed run used to accept the duplicate, and Run the
// descending id.
func TestFeasibilityVerdictIgnoresWorkloadForm(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 50, MeanInterArrival: 2, Seed: 1}
	tr := workload.Generate(workload.Google(), gcfg)
	widest := tr.Meta().MaxTasks
	fail := func(at float64, n int) policy.ChurnEvent {
		return policy.ChurnEvent{At: at, Kind: policy.ChurnFail, Count: n}
	}
	heal := func(at float64, n int) policy.ChurnEvent {
		return policy.ChurnEvent{At: at, Kind: policy.ChurnRecover, Count: n}
	}
	for _, c := range []struct {
		name   string
		nodes  int
		churn  []policy.ChurnEvent
		ids    map[int]int // position -> job id, where it is not the position
		reject string
	}{
		{"job wider than a static pool", widest - 1, nil, nil, "probe pool; cap tasks first"},
		{"failures leave fewer nodes than the widest job", widest + 10, []policy.ChurnEvent{fail(10, 20)}, nil, "surviving worst-case churn (20 concurrent failures)"},
		{"the same failures after the last completion", widest + 10, []policy.ChurnEvent{fail(100000, 20)}, nil, "surviving worst-case churn (20 concurrent failures)"},
		{"staggered failures inside the margin", widest + 10, []policy.ChurnEvent{fail(10, 5), heal(20, 5), fail(30, 5), heal(40, 5)}, nil, ""},
		{"plain run", widest + 10, nil, nil, ""},
		{"duplicate id", widest + 10, nil, map[int]int{10: 9}, `trace "google": job id 9 after job id 9 (ids must ascend)`},
		{"descending id", widest + 10, nil, map[int]int{9: 10, 10: 9}, `trace "google": job id 9 after job id 10 (ids must ascend)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := policy.Config{NumNodes: c.nodes, Policy: "sparrow", Seed: 1}
			if c.churn != nil {
				cfg.Churn = &policy.ChurnSpec{Events: c.churn}
			}
			rowTr := tr.Scale(1, 1)
			for i, j := range rowTr.Jobs {
				if id, ok := c.ids[i]; ok {
					j.ID = id
				}
			}
			want, wantErr := Run(rowTr, cfg)
			if (wantErr == nil) != (c.reject == "") || wantErr != nil && !strings.Contains(wantErr.Error(), c.reject) {
				t.Fatalf("Run(trace): error %v, want one containing %q", wantErr, c.reject)
			}
			forms := map[string]workload.Source{
				"TraceSource":     workload.NewTraceSource(rowTr),
				"GeneratorSource": &renumbered{GeneratorSource: workload.NewGeneratorSource(workload.Google(), gcfg), ids: c.ids},
				"bounds unknown":  unknownBounds{workload.NewTraceSource(rowTr)},
			}
			// Written by hand: the trace writer refuses the id rows' order.
			for _, name := range []string{"g.trace", "g.trace.gz"} {
				path := filepath.Join(t.TempDir(), name)
				writeTraceFile(t, path, rowTr)
				src, err := workload.OpenSource(path)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				forms[name] = src
			}
			for form, src := range forms {
				got, err := RunSource(src, cfg)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s: error %v, Run(trace) said %v", form, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the report differs from Run(trace)'s", form)
				}
			}
		})
	}
}

// renumbered is a GeneratorSource whose jobs at the positions in ids take
// those ids instead of their position.
type renumbered struct {
	*workload.GeneratorSource
	ids map[int]int
	pos int
}

func (r *renumbered) Next() (*workload.Job, bool) {
	j, ok := r.GeneratorSource.Next()
	if id, re := r.ids[r.pos]; ok && re {
		j.ID = id
	}
	r.pos++
	return j, ok
}

// writeTraceFile writes tr to path in the hawk-trace format, gzipped by a
// ".gz" suffix, in whatever order its jobs stand.
func writeTraceFile(t *testing.T, path string, tr *workload.Trace) {
	t.Helper()
	m := tr.Meta()
	var b bytes.Buffer
	fmt.Fprintf(&b, "#hawk-trace v=1 name=%q cutoff=%g frac=%g jobs=%d maxtasks=%d tasks=%d\n",
		m.Name, m.Cutoff, m.ShortPartitionFraction, m.NumJobs, m.MaxTasks, m.TotalTasks)
	for _, j := range tr.Jobs {
		fmt.Fprintf(&b, "%d,%g,%d", j.ID, j.SubmitTime, j.NumTasks())
		for _, d := range j.Durations {
			fmt.Fprintf(&b, ",%g", d)
		}
		b.WriteByte('\n')
	}
	body := b.Bytes()
	if strings.HasSuffix(path, ".gz") {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		body = z.Bytes()
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A trace file's header sizes nothing the run trusts before the records
// arrive. Without maxtasks= the run completes, every job held to the
// feasibility rule as it is pulled (the reader used to bound each job by the
// absent 0); a header promising 10^11 jobs to a retained run ends in the
// reader's diagnosis, where the report used to be pre-sized to 5.6 TB.
func TestFileHeaderIsAPromise(t *testing.T) {
	const head = "#hawk-trace v=1 name=\"g\" cutoff=10 frac=0.1 "
	cfg := policy.Config{NumNodes: 20, Policy: "sparrow", Seed: 1}
	for _, c := range []struct{ body, want string }{
		{head + "jobs=2\n0,0,1,5\n1,2.5,2,6,7\n", ""},
		{head + "jobs=100000000000\n0,0,1,5\n", "file ended after 1 jobs, header promised 100000000000"},
	} {
		path := filepath.Join(t.TempDir(), "g.trace")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := workload.OpenSource(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSource(src, cfg)
		src.Close()
		if c.want == "" && (err != nil || len(res.Jobs) != 2) {
			t.Errorf("header without maxtasks=: %v", err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("header promising 10^11 jobs: %v, want the reader's %q", err, c.want)
		}
	}
}

// unknownBounds is a source that does not know its widest job or its task
// total before it has yielded them.
type unknownBounds struct{ workload.Source }

func (u unknownBounds) Meta() workload.Meta {
	m := u.Source.Meta()
	m.MaxTasks, m.TotalTasks = 0, 0
	return m
}

// jobList is a hand-written Source over a job slice: no Trace stands behind
// it, so nothing has checked a job before the engine pulls it.
type jobList struct {
	meta workload.Meta
	jobs []*workload.Job
}

func (l *jobList) Meta() workload.Meta { return l.meta }

func (l *jobList) Next() (*workload.Job, bool) {
	if len(l.jobs) == 0 {
		return nil, false
	}
	j := l.jobs[0]
	l.jobs = l.jobs[1:]
	return j, true
}

// Every simulator input holds each job to one per-job rule: a job Run
// rejects up front (workload.CheckJob, through Trace.Validate) fails
// RunSource with Run's message when it is pulled, from a Trace's source or a
// hand-written one, first in the stream or later.
func TestRunSourceHoldsEachJobToRunsRule(t *testing.T) {
	cfg := policy.Config{NumNodes: 20, Policy: "sparrow", Seed: 1}
	for _, c := range []struct {
		name string
		bad  *workload.Job
	}{
		{"NaN submit", job(2, math.NaN(), 10)},
		{"negative duration", job(2, 5, -5)},
		{"no tasks", job(2, 5)},
		{"infinite duration", job(2, 5, math.Inf(1))},
	} {
		for _, jobs := range [][]*workload.Job{{c.bad, job(3, 6, 10)}, {job(1, 0, 10), c.bad}} {
			tr := tinyTrace(jobs...)
			_, want := Run(tr, cfg)
			if want == nil || !strings.HasPrefix(want.Error(), "workload: job 2") {
				t.Fatalf("%s: Run = %v, want workload's error naming job 2", c.name, want)
			}
			meta := tr.Meta()
			meta.MaxTasks, meta.TotalTasks = 0, 0
			for _, src := range []struct {
				kind string
				src  workload.Source
			}{
				{"trace", workload.NewTraceSource(tr)},
				{"hand-written", &jobList{meta: meta, jobs: jobs}},
			} {
				if _, err := RunSource(src.src, cfg); err == nil || err.Error() != want.Error() {
					t.Errorf("%s at job %d of %d, %s source: RunSource = %v, want %q",
						c.name, slices.Index(jobs, c.bad)+1, len(jobs), src.kind, err, want)
				}
			}
		}
	}
}

func TestDiscardedJobReportsAggregates(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 500, MeanInterArrival: 1, Seed: 6}
	tr := workload.Generate(workload.Google(), gcfg)
	cfg := policy.Config{NumNodes: 2000, Policy: "hawk", Seed: 2}
	want := mustRun(t, tr, cfg)

	cfg.DiscardJobReports = true
	got, err := RunSource(workload.NewGeneratorSource(workload.Google(), gcfg), cfg)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if len(got.Jobs) != 0 {
		t.Fatalf("DiscardJobReports retained %d job reports", len(got.Jobs))
	}
	if got.Streamed == nil {
		t.Fatal("DiscardJobReports produced no streamed aggregates")
	}

	var short, long, trueLong int64
	for _, j := range want.Jobs {
		if j.Long {
			long++
		} else {
			short++
		}
		if j.TrueLong {
			trueLong++
		}
	}
	st := got.Streamed
	if st.ShortJobs != short || st.LongJobs != long {
		t.Errorf("class counts = %d short / %d long, want %d / %d",
			st.ShortJobs, st.LongJobs, short, long)
	}
	if st.TrueLongJobs != trueLong {
		t.Errorf("TrueLongJobs = %d, want %d", st.TrueLongJobs, trueLong)
	}
	// Both classes hold fewer samples than the reservoir capacity, so the
	// reservoirs are exact and streamed percentiles must equal the ones
	// computed from the retained Jobs slice.
	for _, isLong := range []bool{false, true} {
		for _, p := range []float64{50, 90, 99} {
			if g, w := got.Percentile(isLong, p), want.Percentile(isLong, p); g != w {
				t.Errorf("Percentile(%v, long=%v) = %v, want %v", p, isLong, g, w)
			}
		}
	}
	// The mechanism counters do not depend on report retention.
	if got.Events != want.Events || got.TasksExecuted != want.TasksExecuted ||
		got.ProbesSent != want.ProbesSent || got.Makespan != want.Makespan {
		t.Error("streamed run's scalar counters differ from materialized run")
	}
}

func TestJobSinkReceivesEveryJob(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 300, MeanInterArrival: 1, Seed: 9}
	tr := workload.Generate(workload.Google(), gcfg)
	cfg := policy.Config{NumNodes: 2000, Policy: "hawk", Seed: 3}
	want := mustRun(t, tr, cfg)

	var sunk []policy.JobReport
	cfg.DiscardJobReports = true
	cfg.JobSink = func(j policy.JobReport) error {
		sunk = append(sunk, j)
		return nil
	}
	if _, err := RunSource(workload.NewGeneratorSource(workload.Google(), gcfg), cfg); err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if !reflect.DeepEqual(sunk, want.Jobs) {
		t.Errorf("sink received %d jobs that differ from the retained Jobs slice (want %d)",
			len(sunk), len(want.Jobs))
	}
}

func TestJobCSVSinkRoundTrip(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 250, MeanInterArrival: 1, Seed: 12}
	tr := workload.Generate(workload.Google(), gcfg)
	cfg := policy.Config{NumNodes: 2000, Policy: "hawk", Seed: 6}
	want := mustRun(t, tr, cfg)

	var buf bytes.Buffer
	sink, err := policy.NewJobCSVSink(&buf)
	if err != nil {
		t.Fatalf("NewJobCSVSink: %v", err)
	}
	cfg.DiscardJobReports = true
	cfg.JobSink = sink.Sink
	if _, err := RunSource(workload.NewGeneratorSource(workload.Google(), gcfg), cfg); err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("sink close: %v", err)
	}
	jobs, err := policy.ReadResultsCSV(&buf)
	if err != nil {
		t.Fatalf("ReadResultsCSV: %v", err)
	}
	if !reflect.DeepEqual(jobs, want.Jobs) {
		t.Errorf("CSV round trip yielded %d jobs differing from the retained Jobs slice (want %d)",
			len(jobs), len(want.Jobs))
	}
}

func TestJobSinkErrorAbortsRun(t *testing.T) {
	gcfg := workload.GenConfig{NumJobs: 100, MeanInterArrival: 1, Seed: 2}
	cfg := policy.Config{NumNodes: 500, Policy: "hawk", Seed: 1}
	cfg.JobSink = func(policy.JobReport) error {
		return errSinkFull
	}
	_, err := RunSource(workload.NewGeneratorSource(workload.Google(), gcfg), cfg)
	if err == nil {
		t.Fatal("a failing job sink did not abort the run")
	}
}

var errSinkFull = &sinkErr{}

type sinkErr struct{}

func (*sinkErr) Error() string { return "sink full" }

// peakLiveHeap runs a streamed discard-reports simulation of jobs Google
// jobs and returns the largest post-GC live heap observed at eight points
// spread across the run. Sampling rides the job sink, so the measurement
// is in-band and deterministic.
func peakLiveHeap(t *testing.T, jobs int) uint64 {
	t.Helper()
	src := workload.NewGeneratorSource(workload.Google(), workload.GenConfig{
		NumJobs: jobs, MeanInterArrival: 5.75, Seed: 11,
	})
	stride := jobs / 8
	if stride < 1 {
		stride = 1
	}
	var peak uint64
	done := 0
	cfg := policy.Config{
		NumNodes: 6000, Policy: "hawk", Seed: 9,
		DiscardJobReports: true,
		JobSink: func(policy.JobReport) error {
			if done++; done%stride == 0 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
			return nil
		},
	}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatalf("RunSource(%d jobs): %v", jobs, err)
	}
	if n := res.Streamed.ShortJobs + res.Streamed.LongJobs; n != int64(jobs) {
		t.Fatalf("run completed %d jobs, want %d", n, jobs)
	}
	return peak
}

// TestStreamedRunHeapStaysBounded is the pin on the tentpole property:
// peak live heap of a streamed run is O(in-flight jobs + cluster), not
// O(trace). A 10× longer trace at the same offered load must stay within
// 2× of the short run's peak (the slack absorbs GC timing and the
// allocator's size-class rounding). Grows with trace length — whether from
// retained job reports, per-job wait slices, a materialized trace, or an
// unrecycled arena — and this fails immediately.
func TestStreamedRunHeapStaysBounded(t *testing.T) {
	small, big := 2000, 20000
	if !testing.Short() {
		big = 80000 // ≈2.2M tasks, the full-Google-trace scale
	}
	peakSmall := peakLiveHeap(t, small)
	peakBig := peakLiveHeap(t, big)
	t.Logf("peak live heap: %d jobs → %.1f MiB, %d jobs → %.1f MiB",
		small, float64(peakSmall)/(1<<20), big, float64(peakBig)/(1<<20))
	const slack = 8 << 20
	if peakBig > 2*peakSmall+slack {
		t.Errorf("peak live heap grew from %d to %d bytes (%.1f×) across a %d× longer trace; streaming should pin it",
			peakSmall, peakBig, float64(peakBig)/float64(peakSmall), big/small)
	}
}

// loopSource yields fixed-shape jobs at a fixed cadence and pools the
// structs it handed out, like GeneratorSource but with constant task
// counts — so a recycled Durations slice always has capacity for the next
// job and the steady-state decode loop provably allocates nothing.
type loopSource struct {
	meta workload.Meta
	durs []float64
	gap  float64
	next int
	free []*workload.Job
}

func newLoopSource(jobs int, gap float64, durs ...float64) *loopSource {
	return &loopSource{
		meta: workload.Meta{
			Name: "loop", Cutoff: 1000, ShortPartitionFraction: 0.2,
			NumJobs: jobs, MaxTasks: len(durs),
			TotalTasks: int64(jobs) * int64(len(durs)),
		},
		durs: durs,
		gap:  gap,
	}
}

func (l *loopSource) Meta() workload.Meta { return l.meta }

func (l *loopSource) Next() (*workload.Job, bool) {
	if l.next >= l.meta.NumJobs {
		return nil, false
	}
	var j *workload.Job
	if n := len(l.free); n > 0 {
		j, l.free = l.free[n-1], l.free[:n-1]
	} else {
		j = &workload.Job{Durations: make([]float64, 0, len(l.durs))}
	}
	j.ID = l.next
	j.SubmitTime = float64(l.next) * l.gap
	j.Durations = append(j.Durations[:0], l.durs...)
	l.next++
	return j, true
}

func (l *loopSource) Recycle(j *workload.Job) { l.free = append(l.free, j) }

// steadyStateSimSource is steadyStateSim for a streamed run: same warm-up
// contract, but the simulation pulls from src with job reports discarded,
// so the only per-job state is the recycled arena slot and the
// preallocated reservoirs.
func steadyStateSimSource(t *testing.T, src workload.Source, cfg policy.Config, warm int) *simulation {
	t.Helper()
	cfg.DiscardJobReports = true
	s, err := newSimulationSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.nextSample = math.Inf(1)
	runEvents(s, warm)
	if s.eng.Pending() == 0 {
		t.Fatalf("simulation drained within %d warm-up events — enlarge the source", warm)
	}
	return s
}

// TestStreamingSteadyStateZeroAllocs extends the TestSteadyStateZeroAllocs
// pin to the full streaming loop: decode (source Next), submit-chain,
// placement, completion, streamed aggregation, slot free, and job recycle.
// Once the free lists and reservoirs are warm, none of it may allocate.
func TestStreamingSteadyStateZeroAllocs(t *testing.T) {
	src := newLoopSource(200000, 2.5, 200, 200, 200, 200)
	s := steadyStateSimSource(t, src, policy.Config{NumNodes: 400, Policy: "hawk", Seed: 5}, 20000)
	measureSteadyEvents(t, s, 30000)
	if int(s.submitted) <= len(s.jobs) {
		t.Fatalf("submitted %d jobs into an arena of %d slots — recycling never kicked in", s.submitted, len(s.jobs))
	}
	if len(src.free) == 0 && len(s.freeSlots) == 0 {
		t.Fatal("neither the source pool nor the slot free list was ever used")
	}
}

// saveGoogleTrace writes a small hawk-trace to dir/name and returns its
// path and bytes.
func saveGoogleTrace(t *testing.T, name string) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	gcfg := workload.GenConfig{NumJobs: 40, MeanInterArrival: 1, Seed: 5}
	if err := workload.SaveSource(path, workload.NewGeneratorSource(workload.Google(), gcfg)); err != nil {
		t.Fatalf("SaveSource: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// runFile simulates the trace file at path and returns the run's error.
func runFile(t *testing.T, path string) error {
	t.Helper()
	src, err := workload.OpenSource(path)
	if err != nil {
		t.Fatalf("OpenSource: %v", err)
	}
	defer src.Close()
	_, err = RunSource(src, policy.Config{NumNodes: 2000, Policy: "sparrow", Seed: 1})
	return err
}

// The simulator pulls exactly Meta.NumJobs jobs, so what follows the last
// of them in a file is the file source's to check, and the source's verdict
// the simulator's to ask for once it has pulled that job. These two files
// used to run to a normal report while hawkgen -in rejected them.
func TestRunRejectsRecordPastPromisedCount(t *testing.T) {
	path, raw := saveGoogleTrace(t, "extra.trace")
	if err := runFile(t, path); err != nil {
		t.Fatalf("the well-formed trace fails: %v", err)
	}
	if err := os.WriteFile(path, append(raw, "99,1e9,1.5\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runFile(t, path)
	if err == nil || !strings.Contains(err.Error(), "more records than the 40 jobs the header promised") {
		t.Fatalf("a record past jobs=40 was not diagnosed by the source: %v", err)
	}
}

func TestRunRejectsCorruptGzipTrailer(t *testing.T) {
	path, raw := saveGoogleTrace(t, "crc.trace.gz")
	raw[len(raw)-8] ^= 0xff // first byte of the trailer's CRC-32
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err := runFile(t, path)
	if !errors.Is(err, gzip.ErrChecksum) {
		t.Fatalf("a flipped gzip trailer byte was not diagnosed: %v", err)
	}
}
