package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The checkout root, seen from this package's directory.
const repoRoot = "../.."

// smokeJobs keeps every workload's trace tiny: the smoke test checks the
// harness's plumbing, not its numbers.
const smokeJobs = 300

// The simulator finds these by type assertion; losing one would silently
// change what the traced run measures.
var (
	_ workload.Recycler        = (*timedSource)(nil)
	_ interface{ Err() error } = (*timedSource)(nil)
)

// TestMain lets the test binary stand in for hawkbench as the launcher.
func TestMain(m *testing.M) {
	if os.Getenv(launchEnv) != "" {
		launcherMain()
		return
	}
	os.Exit(m.Run())
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.2, trace: trace,
		jobs: smokeJobs, out: t.TempDir(), root: repoRoot}
}

// printed renders the result the way main does.
func printed(res *result) string {
	var buf bytes.Buffer
	res.print(&buf)
	return buf.String()
}

// TestSmokeMatchesBenchmarkJSON runs every workload of BENCHMARK.json in
// both modes and checks that the output names exactly the metrics the file
// promises: each once, with the promised unit, and a well-formed last line.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not defined by the harness", sw.Name)
		}
		if sw.Why != w.why {
			t.Errorf("%s: BENCHMARK.json and the harness give different reasons", sw.Name)
		}
		for _, mode := range []struct {
			trace bool
			want  []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, err := run(smokeOptions(t, sw.Name, mode.trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sw.Name, mode.trace, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: %d failed of %d attempted: %v", sw.Name, mode.trace, res.failed, res.attempted, res.failures)
			}
			out := printed(res)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var last resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", sw.Name, mode.trace, err)
			}
			if len(last.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", sw.Name, mode.trace, len(last.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
				got, ok := last.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing from the result", sw.Name, mode.trace, m.Name)
					continue
				}
				if got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
				n := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s trace=%v: metric %s printed %d times with its unit, want once", sw.Name, mode.trace, m.Name, n)
				}
			}
			if !mode.trace && last.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %v, want > 0", sw.Name, last.Metrics["setup_s"].Value)
			}
		}
	}
}

// TestCorruptOutputIsCounted damages one run's out.csv and expects that
// run, and only that run, to be counted as failed.
func TestCorruptOutputIsCounted(t *testing.T) {
	o := smokeOptions(t, "google_stream", false)
	calls := 0
	o.corrupt = func(r *runner) {
		if calls++; calls != 2 {
			return
		}
		f, err := os.OpenFile(r.csvPath(), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString("999999,0,1,1,false,false,1\n"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.attempted < subTraces {
		t.Fatalf("%d failed of %d attempted, want exactly 1 failure: %v", res.failed, res.attempted, res.failures)
	}
	if res.json().Correct {
		t.Fatal("result is reported correct despite a corrupted out.csv")
	}
	if !strings.Contains(printed(res), "(1 failed of") {
		t.Fatal("printed output does not show the failure count")
	}
}

// TestTracingChangesNoOutput pins the tracing wrappers' transparency: the
// traced run must write byte-identical report JSON and per-job CSV, on a
// streamed workload (job sink wrapped) and a retained one.
func TestTracingChangesNoOutput(t *testing.T) {
	for _, name := range []string{"churn_faults", "sparrow_retained_gz"} {
		w := workloadByName(name)
		dir := t.TempDir()
		su, err := setUp(w, smokeJobs, 3, dir, 0, newReference())
		if err != nil {
			t.Fatal(err)
		}
		in := su.traces[0]
		files := map[bool][2]string{}
		var rec *recorder
		for _, traced := range []bool{false, true} {
			csv, js := filepath.Join(dir, "plain.csv"), filepath.Join(dir, "plain.json")
			var cur *recorder
			if traced {
				csv, js = filepath.Join(dir, "traced.csv"), filepath.Join(dir, "traced.json")
				cur = newRecorder(name, 0)
				rec = cur
			}
			if _, err := runPipeline(w, in.path, in.seed, csv, js, cur); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			files[traced] = [2]string{csv, js}
		}
		for i, kind := range []string{"per-job CSV", "report JSON"} {
			plain, err := os.ReadFile(files[false][i])
			if err != nil {
				t.Fatal(err)
			}
			traced, err := os.ReadFile(files[true][i])
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) == 0 || !bytes.Equal(plain, traced) {
				t.Errorf("%s: traced %s differs from the untraced one (%d vs %d bytes)", name, kind, len(traced), len(plain))
			}
		}
		// The simulator pulls exactly Meta.NumJobs jobs.
		if _, n := rec.total(spanNext); n != smokeJobs {
			t.Errorf("%s: %d %s spans, want %d", name, n, spanNext, smokeJobs)
		}
		if _, n := rec.total(spanSink); w.stream && n != smokeJobs {
			t.Errorf("%s: %d %s spans, want %d", name, n, spanSink, smokeJobs)
		}
		for i, s := range rec.spans {
			if s.end < s.start || (s.parent < 0) != (i == 0) {
				t.Fatalf("%s: span %d %+v is malformed", name, i, s)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// whose values the acceptance check is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
