package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/hawk"
)

// hawkgen -in X -out X is safe where hawksim -trace X -trace-out X was not:
// the input is materialized (and closed) before the output is created.
func TestConvertInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace.gz")
	want := hawk.Generate(hawk.Google(), hawk.GenConfig{NumJobs: 300, MeanInterArrival: 2.3, Seed: 4})
	if err := hawk.SaveTraceSource(path, hawk.NewTraceSource(want)); err != nil {
		t.Fatal(err)
	}
	if err := flag.CommandLine.Parse([]string{"-in", path, "-out", path, "-stats=false"}); err != nil {
		t.Fatal(err)
	}
	tr, _, err := obtainTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := hawk.SaveTraceSource(path, hawk.NewTraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	got, err := hawk.LoadTraceFile(path)
	if err != nil {
		t.Fatalf("the trace converted onto itself no longer loads: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the trace converted onto itself differs: %d jobs, want %d", got.Len(), want.Len())
	}
}

// With no -ia, hawkgen generates each workload at its calibrated arrival
// rate — the trace hawksim -workload simulates — not at google's 2.3 s for
// all four (which made a yahoo trace 3x more loaded than hawksim's).
func TestDefaultInterArrivalIsTheWorkloadsCalibratedRate(t *testing.T) {
	for _, spec := range hawk.AllSpecs() {
		if err := flag.CommandLine.Parse([]string{"-in", "", "-workload", spec.Name, "-jobs", "200", "-ia", "0"}); err != nil {
			t.Fatal(err)
		}
		got, _, err := obtainTrace()
		if err != nil {
			t.Fatal(err)
		}
		ia := spec.CalibratedInterArrival()
		want := hawk.Generate(spec, hawk.GenConfig{NumJobs: 200, MeanInterArrival: ia, Seed: 42})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the default trace is not the one generated at %g s (last submission %.0f s, want %.0f s)",
				spec.Name, ia, got.MakespanLowerBound(), want.MakespanLowerBound())
		}
	}
}

// A workload is recorded by hawkgen -out (from a materialized Trace) or by
// hawksim -trace-out (job by job, before the run), and for one (workload,
// jobs, seed) the two write the same bytes, plain and gzipped — which is why
// hawkexp, whose synthetic trace is hawkgen's, records nothing itself.
func TestOutMatchesHawksimTraceOut(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../hawksim").CombinedOutput(); err != nil {
		t.Fatalf("building hawkgen and hawksim: %v\n%s", err, out)
	}
	for _, c := range []struct{ workload, ext string }{
		{"google", ".trace"},
		{"google", ".trace.gz"},
		{"yahoo", ".trace.gz"}, // a workload whose calibrated arrival rate is not google's
	} {
		gen := filepath.Join(dir, "gen-"+c.workload+c.ext)
		sim := filepath.Join(dir, "sim-"+c.workload+c.ext)
		for _, cmd := range []*exec.Cmd{
			exec.Command(filepath.Join(dir, "hawkgen"), "-workload", c.workload, "-jobs", "300", "-seed", "7", "-stats=false", "-out", gen),
			exec.Command(filepath.Join(dir, "hawksim"), "-workload", c.workload, "-jobs", "300", "-seed", "7", "-stream", "-trace-out", sim),
		} {
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
			}
		}
		a, err := os.ReadFile(gen)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(sim)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s%s: hawkgen -out wrote %d bytes, hawksim -trace-out %d, and they differ", c.workload, c.ext, len(a), len(b))
		}
	}
}
