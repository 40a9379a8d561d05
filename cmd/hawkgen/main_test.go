package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/hawk"
)

// hawkgen -in X -out X converts in place: the input is materialized (and
// closed) before the output is created.
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

// A generated workload is recorded two ways: with -stats=false it streams
// job by job into -out, and with the statistics it is materialized first.
// For one (workload, jobs, seed) the two write the same bytes, plain and
// gzipped — the file hawksim -workload simulates, which is why neither
// hawksim nor hawkexp records anything itself.
func TestStreamedOutMatchesMaterialized(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hawkgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hawkgen: %v\n%s", err, out)
	}
	for _, c := range []struct{ workload, ext string }{
		{"google", ".trace"},
		{"google", ".trace.gz"},
		{"yahoo", ".trace.gz"}, // a workload whose calibrated arrival rate is not google's
	} {
		var files [2][]byte
		for i, stats := range []string{"-stats=false", "-stats=true"} {
			path := filepath.Join(dir, fmt.Sprint(i, c.workload, c.ext))
			cmd := exec.Command(bin, "-workload", c.workload, "-jobs", "300", "-seed", "7", stats, "-out", path)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
			}
			var err error
			if files[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s%s: the streamed recording has %d bytes, the materialized one %d, and they differ",
				c.workload, c.ext, len(files[0]), len(files[1]))
		}
	}
}
