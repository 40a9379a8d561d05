package main

import (
	"flag"
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
	if err := writeTrace(tr); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrace(path)
	if err != nil {
		t.Fatalf("the trace converted onto itself no longer loads: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the trace converted onto itself differs: %d jobs, want %d", got.Len(), want.Len())
	}
}
