package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/hawk"
)

// The flag names are an interface: scripts, the README and bench/hawkbench
// pass them to hawksim and hawkexp. (The argv -> Config mapping is pinned
// by cmd/hawksim's TestBuildConfig.)
func TestRegisterDefinesTheScenarioFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"central-down", "central-up", "fail-at", "fail-nodes", "fault-retries", "jitter",
		"msg-loss", "net-delay", "recover-at", "scheduler-fail-at", "scheduler-recover-at",
		"schedulers", "slow-speed", "snapshot-interval", "speculate", "speed-skew",
		"straggle-at", "straggle-factor", "straggle-nodes",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("scenario flags = %v\nwant %v", got, want)
	}
}

// -msg-loss p is hawk.UniformLoss(p) plus the fault flags Apply owns; the
// other planes stay nil, so the run keeps its static fast paths.
func TestApplyMsgLossIsUniformLoss(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sc := Register(fs)
	if err := fs.Parse([]string{"-msg-loss", "0.02", "-jitter", "0.001", "-fault-retries", "6", "-speculate"}); err != nil {
		t.Fatal(err)
	}
	var got hawk.Config
	sc.Apply(&got)
	f := hawk.UniformLoss(0.02)
	f.Jitter, f.MaxRetries, f.Speculate = 0.001, 6, true
	if want := (hawk.Config{Faults: &f}); !reflect.DeepEqual(got, want) {
		t.Errorf("Apply = %+v (faults %+v)\nwant faults %+v and nothing else", got, got.Faults, f)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written (err %v)", p, err)
		}
	}

	// No paths: nothing to start, and stop is still callable.
	if stop, err = StartProfiles("", ""); err != nil {
		t.Fatal(err)
	}
	stop()

	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Error("StartProfiles into a missing directory succeeded")
	}
}
