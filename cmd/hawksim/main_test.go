package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/hawk"
)

// parseArgs resets every hawksim flag to its default and parses argv, as a
// fresh process would.
func parseArgs(t *testing.T, argv ...string) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags share the command line
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("resetting -%s: %v", f.Name, err)
		}
	})
	if err := flag.CommandLine.Parse(argv); err != nil {
		t.Fatal(err)
	}
}

// base is the Config of a flagless run under the named policy: hawksim
// passes its -probes, -stealcap, -nodes and -seed defaults explicitly.
func base(policy string) hawk.Config {
	return hawk.Config{Policy: policy, NumNodes: 15000, ProbeRatio: 2, StealCap: 10, Seed: 42}
}

// The argv -> Config mapping is a contract: bench/hawkbench runs hawksim as
// a child process and compares its report byte for byte against an
// in-process run of the Config it expects these exact flags to build. The
// first four cases are that benchmark's invocations (workloads.go).
func TestBuildConfig(t *testing.T) {
	io := []string{"-trace", "t.trace", "-seed", "7", "-dump", "d.csv", "-json", "r.json", "-nodes", "15000"}
	seeded := func(policy string) hawk.Config { c := base(policy); c.Seed = 7; return c }
	for _, c := range []struct {
		name string
		argv []string
		want func() hawk.Config
	}{
		{"defaults", nil, func() hawk.Config { return base("hawk") }},
		{"google_stream", append(io, "-policy", "hawk", "-stream"), func() hawk.Config {
			c := seeded("hawk")
			c.DiscardJobReports = true
			return c
		}},
		{"multisched_stale", append(io, "-policy", "hawk", "-schedulers", "10", "-snapshot-interval", "60", "-stream"), func() hawk.Config {
			c := seeded("hawk")
			c.DiscardJobReports = true
			c.Schedulers = &hawk.SchedulerSpec{Count: 10, SnapshotInterval: 60}
			return c
		}},
		{"sparrow_retained_gz", append(io, "-policy", "sparrow"), func() hawk.Config { return seeded("sparrow") }},
		{"churn_faults", append(io, "-policy", "hawk", "-stream", "-fail-nodes", "750", "-fail-at", "20000",
			"-recover-at", "60000", "-msg-loss", "0.01", "-jitter", "0.001", "-fault-retries", "8"), func() hawk.Config {
			c := seeded("hawk")
			c.DiscardJobReports = true
			c.Churn = &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
				{At: 20000, Kind: hawk.ChurnFail, Count: 750},
				{At: 60000, Kind: hawk.ChurnRecover, Count: 750},
			}}
			c.Faults = &hawk.FaultSpec{
				ProbeLoss: 0.01, ReplyLoss: 0.01, StealLoss: 0.01, AssignLoss: 0.01, CommitLoss: 0.01,
				Jitter: 0.001, MaxRetries: 8,
			}
			return c
		}},
		{"all flags", []string{
			"-policy", "split", "-nodes", "500", "-cutoff", "90", "-partition", "0.2", "-probes", "3",
			"-stealcap", "5", "-nosteal", "-nopartition", "-nocentral", "-mislo", "0.5", "-mishi", "1.5",
			"-seed", "9", "-stream",
			"-schedulers", "4", "-snapshot-interval", "30", "-scheduler-fail-at", "100", "-scheduler-recover-at", "200",
			"-fail-nodes", "20", "-fail-at", "300", "-recover-at", "400", "-central-down", "500", "-central-up", "600",
			"-speed-skew", "0.3", "-slow-speed", "0.25",
			"-net-delay", "0.002", "-msg-loss", "0.05", "-jitter", "0.001", "-straggle-at", "700",
			"-straggle-nodes", "30", "-straggle-factor", "6", "-speculate", "-fault-retries", "5",
		}, func() hawk.Config {
			return hawk.Config{
				Policy: "split", NumNodes: 500, Cutoff: 90, ShortPartitionFraction: 0.2, ProbeRatio: 3,
				StealCap: 5, DisableStealing: true, DisablePartition: true, DisableCentral: true,
				MisestimateLo: 0.5, MisestimateHi: 1.5, Seed: 9, DiscardJobReports: true,
				NetworkDelay: 0.002,
				Schedulers:   &hawk.SchedulerSpec{Count: 4, SnapshotInterval: 30},
				Churn: &hawk.ChurnSpec{Events: []hawk.ChurnEvent{
					{At: 300, Kind: hawk.ChurnFail, Count: 20},
					{At: 400, Kind: hawk.ChurnRecover, Count: 20},
					{At: 500, Kind: hawk.ChurnCentralDown},
					{At: 600, Kind: hawk.ChurnCentralUp},
					{At: 100, Kind: hawk.ChurnSchedFail, Node: 0},
					{At: 200, Kind: hawk.ChurnSchedRecover, Node: 0},
				}},
				Heterogeneity: &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: 0.3, Speed: 0.25}}},
				Faults: &hawk.FaultSpec{
					ProbeLoss: 0.05, ReplyLoss: 0.05, StealLoss: 0.05, AssignLoss: 0.05, CommitLoss: 0.05,
					Jitter: 0.001, MaxRetries: 5, Speculate: true,
					Stragglers: []hawk.StragglerEvent{{At: 700, Count: 30, Factor: 6}},
				},
			}
		}},
		// Zero means unset, but an invalid negative must reach Normalize,
		// which rejects it, rather than being swallowed as "unset".
		{"negative loss passes through", []string{"-msg-loss", "-0.5"}, func() hawk.Config {
			c := base("hawk")
			c.Faults = &hawk.FaultSpec{ProbeLoss: -0.5, ReplyLoss: -0.5, StealLoss: -0.5, AssignLoss: -0.5, CommitLoss: -0.5}
			return c
		}},
		// Knobs with a non-zero default, of a plane whose enabling flag is
		// unset, leave the plane off. Those whose zero means unset are
		// refused instead: see TestDependentFlagNeedsItsPlane.
		{"dependent knobs alone", []string{"-slow-speed", "0.1", "-straggle-factor", "9"},
			func() hawk.Config { return base("hawk") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			parseArgs(t, c.argv...)
			got, err := buildConfig(*policyFlag)
			if err != nil {
				t.Fatalf("argv %v: %v", c.argv, err)
			}
			if want := c.want(); !reflect.DeepEqual(got, want) {
				t.Errorf("argv %v\n got %+v\nwant %+v", c.argv, got, want)
			}
		})
	}
}

// The multisched_stale command with -schedulers forgotten used to run the
// exact single-scheduler model without a word, while its sibling
// -scheduler-fail-at without -schedulers failed Normalize. It is refused
// before anything is opened for writing, and the message names both flags.
func TestSnapshotIntervalNeedsSchedulers(t *testing.T) {
	dir := t.TempDir()
	outs := []string{filepath.Join(dir, "r.json"), filepath.Join(dir, "d.csv"), filepath.Join(dir, "w.trace")}
	code, stderr := runMain(t, "-workload", "google", "-jobs", "50", "-nodes", "500", "-policy", "hawk",
		"-snapshot-interval", "60", "-json", outs[0], "-dump", outs[1], "-trace-out", outs[2])
	if code != 2 {
		t.Errorf("exit code %d, want 2; stderr: %s", code, stderr)
	}
	if !bytes.Contains(stderr, []byte("-snapshot-interval 60")) || !bytes.Contains(stderr, []byte("-schedulers")) {
		t.Errorf("the message does not name both flags: %s", stderr)
	}
	for _, path := range outs {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s was written by a run that was refused", filepath.Base(path))
		}
	}
	code, stdout, stderr := runMainOut(t, "-workload", "google", "-jobs", "50", "-nodes", "500", "-policy", "hawk",
		"-schedulers", "2", "-snapshot-interval", "60")
	if code != 0 || !bytes.Contains(stdout, []byte("schedulers: n=2")) {
		t.Errorf("with -schedulers 2: exit code %d, stdout %s, stderr %s", code, stdout, stderr)
	}
}

// The churn_faults command with -msg-loss and -fail-nodes forgotten used to
// run the static, lossless model and exit 0. internal/cliflags has the table
// of such flags; this is the exit code and the message from the binary's main.
func TestDependentFlagNeedsItsPlane(t *testing.T) {
	code, stderr := runMain(t, "-workload", "google", "-jobs", "50", "-nodes", "500", "-policy", "hawk",
		"-fault-retries", "8", "-recover-at", "50", "-straggle-at", "5", "-central-up", "9")
	if code != 2 {
		t.Errorf("exit code %d, want 2; stderr: %s", code, stderr)
	}
	if !bytes.Contains(stderr, []byte("-recover-at 50")) || !bytes.Contains(stderr, []byte("-fail-nodes")) {
		t.Errorf("the message does not name both flags: %s", stderr)
	}
}

// -ia 0 (the default) generates each workload at its calibrated arrival rate,
// the same one hawkgen and hawkexp use.
func TestDefaultInterArrival(t *testing.T) {
	for _, spec := range hawk.AllSpecs() {
		parseArgs(t, "-workload", spec.Name, "-jobs", "200")
		src, err := openWorkload()
		if err != nil {
			t.Fatal(err)
		}
		got, err := hawk.MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		ia := spec.CalibratedInterArrival()
		want := hawk.Generate(spec, hawk.GenConfig{NumJobs: 200, MeanInterArrival: ia, Seed: 42})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the default trace is not the one generated at %g s", spec.Name, ia)
		}
	}
}

// runMain runs hawksim in-process on argv and returns its exit code and
// what it wrote to standard error.
func runMain(t *testing.T, argv ...string) (int, []byte) {
	t.Helper()
	code, _, stderr := runMainOut(t, argv...)
	return code, stderr
}

// runMainOut is runMain that also returns standard output.
func runMainOut(t *testing.T, argv ...string) (code int, stdout, stderr []byte) {
	t.Helper()
	parseArgs(t, argv...)
	dir := t.TempDir()
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	realStdout, realStderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	code = realMain()
	os.Stdout, os.Stderr = realStdout, realStderr
	var out [2][]byte
	for i, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if out[i], err = os.ReadFile(f.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return code, out[0], out[1]
}

// A streamed run that fails must still leave a whole -dump CSV: one
// parseable row per job that completed before the failure. (The sink used to
// be closed on the success path only, cutting the file mid-row at a buffer
// boundary.) A central outage that never ends is the failure: every long
// job waits forever and the run ends in the deadlock diagnosis.
func TestFailedStreamedRunFlushesDump(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "jobs.csv")
	code, stderr := runMain(t, "-workload", "google", "-jobs", "300", "-stream", "-dump", dump, "-central-down", "1")
	if code != 1 {
		t.Errorf("exit code %d, want 1; stderr: %s", code, stderr)
	}
	m := regexp.MustCompile(`hawksim: sim: deadlock — (\d+) of 300 jobs completed; \d+ central placements backlogged`).FindSubmatch(stderr)
	if m == nil {
		t.Fatalf("stderr lacks the deadlock diagnosis: %s", stderr)
	}
	completed, _ := strconv.Atoi(string(m[1]))
	if completed == 0 {
		t.Fatal("no job completed before the deadlock; the scenario no longer exercises the sink")
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := hawk.ReadResultsCSV(f)
	if err != nil {
		t.Fatalf("the dump of a failed run does not parse: %v", err)
	}
	if len(rows) != completed {
		t.Errorf("dump has %d rows, want one per completed job (%d)", len(rows), completed)
	}
}

// A retained run's -dump rides the same sink, so it keeps the same promise.
// It used to be written from the report once the run had succeeded, and a
// failed run left no file at all.
func TestFailedRetainedRunFlushesDump(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "jobs.csv")
	code, stderr := runMain(t, "-workload", "google", "-jobs", "300", "-dump", dump, "-central-down", "1")
	m := regexp.MustCompile(`deadlock — (\d+) of 300 jobs completed`).FindSubmatch(stderr)
	if code != 1 || m == nil {
		t.Fatalf("exit code %d, want 1 and the deadlock diagnosis; stderr: %s", code, stderr)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := hawk.ReadResultsCSV(f)
	if err != nil {
		t.Fatalf("the dump of a failed run does not parse: %v", err)
	}
	if completed, _ := strconv.Atoi(string(m[1])); completed == 0 || len(rows) != completed {
		t.Errorf("dump has %d rows, want one per completed job (%d, which must not be 0)", len(rows), completed)
	}
}

// One workload, two forms, one answer: a run over a generated workload and a
// run over the trace file -trace-out wrote of it print the same result lines.
// (The file form used to print the whole-run utilization median, 6.5 % here,
// where the generated form printed the arrival-window one, 96.9 %: the last
// submit time was only known from a *Trace.) A headerless legacy CSV of the
// same jobs, given the cutoff its format cannot carry, is a third form.
func TestSameWorkloadSameResultLines(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "t.trace.gz")
	code, stdout, stderr := runMainOut(t, "-workload", "google", "-jobs", "300", "-nodes", "2000", "-trace-out", file)
	if code != 0 {
		t.Fatalf("generated run: exit code %d; stderr: %s", code, stderr)
	}
	wrote, want, ok := bytes.Cut(stdout, []byte("\n"))
	if !ok || !bytes.HasPrefix(wrote, []byte("wrote workload to ")) {
		t.Fatalf("stdout does not start with the -trace-out line:\n%s", stdout)
	}
	if !bytes.Contains(want, []byte("median utilization (arrival window)")) {
		t.Fatalf("no arrival-window utilization line:\n%s", want)
	}
	legacy := filepath.Join(dir, "legacy.csv")
	spec := hawk.Google()
	// Nothing in the repo writes that format: it is a hawk-trace file
	// without its first line.
	plain := filepath.Join(dir, "t.trace")
	src := hawk.NewGeneratorSource(spec, hawk.GenConfig{NumJobs: 300, MeanInterArrival: spec.CalibratedInterArrival(), Seed: 42})
	if err := hawk.SaveTraceSource(plain, src); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	_, records, _ := bytes.Cut(raw, []byte("\n"))
	if err := os.WriteFile(legacy, records, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, argv := range [][]string{
		{"-trace", file, "-nodes", "2000"},
		{"-trace", legacy, "-nodes", "2000", "-cutoff", fmt.Sprint(spec.Cutoff), "-partition", fmt.Sprint(spec.ShortPartitionFraction)},
	} {
		code, got, stderr := runMainOut(t, argv...)
		if code != 0 {
			t.Fatalf("%v: exit code %d; stderr: %s", argv, code, stderr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v prints\n%s\nthe generated workload printed\n%s", argv, got, want)
		}
	}
}

// saveTrace writes a jobs-job google hawk-trace to dir/name and returns its
// path and bytes.
func saveTrace(t *testing.T, name string, jobs int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	src := hawk.NewGeneratorSource(hawk.Google(), hawk.GenConfig{NumJobs: jobs, MeanInterArrival: 2.3, Seed: 3})
	if err := hawk.SaveTraceSource(path, src); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// -trace-out used to create its file while the -trace source still had the
// same file open for reading: the input was cut to whatever the reader had
// buffered and the run died on a short record. However the two paths are
// spelled, that is refused up front and the input is left alone.
func TestTraceOutOntoTraceIsRefused(t *testing.T) {
	path, raw := saveTrace(t, "in.trace", 200)
	alias := filepath.Join(filepath.Dir(path), ".", "sub", "..", "in.trace")
	if err := os.Mkdir(filepath.Join(filepath.Dir(path), "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{path, alias} {
		code, stderr := runMain(t, "-trace", path, "-trace-out", out)
		if code != 2 {
			t.Errorf("-trace-out %s: exit code %d, want 2; stderr: %s", out, code, stderr)
		}
		if !bytes.Contains(stderr, []byte("-trace ")) || !bytes.Contains(stderr, []byte("-trace-out ")) {
			t.Errorf("-trace-out %s: the message does not name both flags: %s", out, stderr)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, raw) {
			t.Fatalf("-trace-out %s: the input trace changed from %d to %d bytes", out, len(raw), len(after))
		}
	}
	// A different file is still a conversion followed by a run.
	out := filepath.Join(t.TempDir(), "out.trace.gz")
	if code, stderr := runMain(t, "-trace", path, "-trace-out", out, "-nodes", "2000"); code != 0 {
		t.Errorf("converting to another file: exit code %d; stderr: %s", code, stderr)
	}
}

// A trace that is malformed only past the last job its header promises must
// fail the run with the source's own diagnosis, as it fails hawkgen -in.
func TestMalformedTraceTailFailsTheRun(t *testing.T) {
	extra, raw := saveTrace(t, "extra.trace", 60)
	if err := os.WriteFile(extra, append(raw, "99,1e9,1.5\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	crc, raw := saveTrace(t, "crc.trace.gz", 60)
	raw[len(raw)-8] ^= 0xff // first byte of the gzip trailer's CRC-32
	if err := os.WriteFile(crc, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{extra, "more records than the 60 jobs the header promised"},
		{crc, "gzip: invalid checksum"},
	} {
		code, stderr := runMain(t, "-trace", c.path, "-policy", "sparrow", "-nodes", "2000")
		if code == 0 || !bytes.Contains(stderr, []byte(c.want)) {
			t.Errorf("%s: exit code %d, stderr %q; want a failure saying %q", filepath.Base(c.path), code, stderr, c.want)
		}
	}
}
