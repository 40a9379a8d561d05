package main

import (
	"bytes"
	"compress/gzip"
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
		// So must a negative -probes or -stealcap: Normalize used to read
		// both as "unset" and run with the defaults 2 and 10.
		{"negative probes and stealcap pass through", []string{"-probes", "-1", "-stealcap", "-3"}, func() hawk.Config {
			c := base("hawk")
			c.ProbeRatio, c.StealCap = -1, -3
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
	outs := []string{filepath.Join(dir, "r.json"), filepath.Join(dir, "d.csv")}
	code, stderr := runMain(t, "-workload", "google", "-jobs", "50", "-nodes", "500", "-policy", "hawk",
		"-snapshot-interval", "60", "-json", outs[0], "-dump", outs[1])
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

// A negative -probes or -stealcap fails the run naming the Config field,
// where it used to run with the default.
func TestNegativeCountFailsTheRun(t *testing.T) {
	for _, c := range []struct{ flag, field string }{{"-probes", "ProbeRatio"}, {"-stealcap", "StealCap"}} {
		code, stderr := runMain(t, "-workload", "google", "-jobs", "50", "-nodes", "500", c.flag, "-1")
		if code != 1 || !bytes.Contains(stderr, []byte(c.field)) {
			t.Errorf("%s -1: exit code %d, stderr %q; want 1 and an error naming %s", c.flag, code, stderr, c.field)
		}
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
// run over a hawk-trace file of the same jobs print the same result lines.
// (The file form used to print the whole-run utilization median, 6.5 % here,
// where the generated form printed the arrival-window one, 96.9 %: the last
// submit time was only known from a *Trace.) The same records behind the
// minimal header README gives outside tools, without name=, maxtasks= or
// tasks=, are a third form; without any header they are refused, naming it.
func TestSameWorkloadSameResultLines(t *testing.T) {
	code, want, stderr := runMainOut(t, "-workload", "google", "-jobs", "300", "-nodes", "2000")
	if code != 0 {
		t.Fatalf("generated run: exit code %d; stderr: %s", code, stderr)
	}
	if !bytes.Contains(want, []byte("median utilization (arrival window)")) {
		t.Fatalf("no arrival-window utilization line:\n%s", want)
	}
	dir := t.TempDir()
	spec := hawk.Google()
	gen := func() hawk.Source {
		return hawk.NewGeneratorSource(spec, hawk.GenConfig{NumJobs: 300, MeanInterArrival: spec.CalibratedInterArrival(), Seed: 42})
	}
	// The recorded form is the file hawkgen -stats=false -out writes.
	file := filepath.Join(dir, "t.trace.gz")
	if err := hawk.SaveTraceSource(file, gen()); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "t.trace")
	if err := hawk.SaveTraceSource(plain, gen()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	_, records, _ := bytes.Cut(raw, []byte("\n"))
	minimal := filepath.Join(dir, "minimal.trace")
	header := fmt.Sprintf("#hawk-trace v=1 cutoff=%v frac=%v jobs=300\n", spec.Cutoff, spec.ShortPartitionFraction)
	bare := filepath.Join(dir, "bare.csv")
	if err := os.WriteFile(minimal, append([]byte(header), records...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bare, records, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{file, minimal} {
		code, got, stderr := runMainOut(t, "-trace", path, "-nodes", "2000")
		if code != 0 {
			t.Fatalf("%s: exit code %d; stderr: %s", filepath.Base(path), code, stderr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s prints\n%s\nthe generated workload printed\n%s", filepath.Base(path), got, want)
		}
	}
	code, stderr = runMain(t, "-trace", bare, "-nodes", "2000")
	if code == 0 || !bytes.Contains(stderr, []byte(`"#hawk-trace v=1 cutoff=C frac=F jobs=N"`)) {
		t.Errorf("bare records: exit code %d, stderr %q; want a failure naming the header line", code, stderr)
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

// A broken ".gz" trace fails the run with the file reader's diagnosis: a cut
// stream at the job it cuts, bytes after the trailer too short for a header
// as a truncation, a second member's records as more than the header
// promised, a flipped trailer byte as gzip.ErrChecksum's text, a bad magic
// number as gzip.ErrHeader's and a reserved block type as corrupt data.
func TestGzipTraceDiagnoses(t *testing.T) {
	_, raw := saveTrace(t, "g.trace.gz", 60)
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte("60,1e9,1,1.5\n"))
	zw.Close()
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte{}, raw...)) }
	flip := func(i int) []byte { return edit(func(b []byte) []byte { b[i] ^= 0xff; return b }) }
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"cut", raw[:len(raw)/2], "job 21: unexpected EOF"},
		{"trailing bytes", edit(func(b []byte) []byte { return append(b, "xyz"...) }), "job 60: unexpected EOF"},
		{"second member", edit(func(b []byte) []byte { return append(b, z.Bytes()...) }), "more records than the 60 jobs the header promised"},
		{"crc", flip(len(raw) - 8), "gzip: invalid checksum"},
		{"isize", flip(len(raw) - 1), "gzip: invalid checksum"},
		{"magic", flip(0), "gzip: invalid header"},
		{"block type", edit(func(b []byte) []byte { b[10] |= 6; return b }), "flate: corrupt input before offset"},
	} {
		path := filepath.Join(dir, c.name+".trace.gz")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr := runMain(t, "-trace", path, "-policy", "sparrow", "-nodes", "2000")
		if code == 0 || !bytes.Contains(stderr, []byte(c.want)) {
			t.Errorf("%s: exit code %d, stderr %q; want a failure saying %q", c.name, code, stderr, c.want)
		}
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

// -policy names one of the four policies; anything else exits 2 with a
// message listing them, and -list-policies prints them one per line.
func TestUnknownPolicyListsTheFour(t *testing.T) {
	code, stderr := runMain(t, "-workload", "google", "-jobs", "50", "-nodes", "500", "-policy", "bogus")
	if code != 2 || !bytes.Contains(stderr, []byte(`unknown policy "bogus"`)) {
		t.Errorf("exit code %d, stderr %q; want 2 and the unknown-policy message", code, stderr)
	}
	for _, name := range hawk.Policies() {
		if !bytes.Contains(stderr, []byte(name)) {
			t.Errorf("the message does not name %q: %s", name, stderr)
		}
	}
	code, stdout, _ := runMainOut(t, "-list-policies")
	if want := "centralized\nhawk\nsparrow\nsplit\n"; code != 0 || string(stdout) != want {
		t.Errorf("-list-policies: exit code %d, stdout %q; want 0 and %q", code, stdout, want)
	}
}

// The simulator samples utilization every 100 s. A run that ends before the
// first sample says so instead of printing "NaN%", and so does one whose
// jobs all arrive before it.
func TestUtilizationLineWithoutSamples(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, records, want string }{
		{"two-jobs", "0,0,1,5\n1,2.5,2,6,7\n", "median utilization: no sample (run ended before t=100 s)\n"},
		{"long-tail", "0,0,1,5\n1,2.5,1,250\n", "median utilization (arrival window): no sample (last submit before t=100 s)  max: 5.0%\n"},
	} {
		path := filepath.Join(dir, c.name+".trace")
		trace := "#hawk-trace v=1 name=\"g\" cutoff=10 frac=0.1 jobs=2\n" + c.records
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runMainOut(t, "-trace", path, "-nodes", "20", "-policy", "sparrow")
		if code != 0 || !bytes.Contains(stdout, []byte(c.want)) || bytes.Contains(stdout, []byte("NaN%")) {
			t.Errorf("%s: exit code %d, stdout %q, stderr %q; want 0 and %q", c.name, code, stdout, stderr, c.want)
		}
	}
}
