package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
	if err := sc.Apply(&got); err != nil {
		t.Fatal(err)
	}
	f := hawk.UniformLoss(0.02)
	f.Jitter, f.MaxRetries, f.Speculate = 0.001, 6, true
	if want := (hawk.Config{Faults: &f}); !reflect.DeepEqual(got, want) {
		t.Errorf("Apply = %+v (faults %+v)\nwant faults %+v and nothing else", got, got.Faults, f)
	}
}

// -snapshot-interval configures a plane only -schedulers switches on. Alone
// it used to be dropped, and the run was the single-scheduler model; it is
// an error that names both flags, whatever its sign.
func TestApplySnapshotIntervalNeedsSchedulers(t *testing.T) {
	for _, c := range []struct {
		argv []string
		want *hawk.SchedulerSpec // nil = an error naming both flags
	}{
		{[]string{"-snapshot-interval", "60"}, nil},
		{[]string{"-snapshot-interval", "-1"}, nil},
		{[]string{"-schedulers", "0", "-snapshot-interval", "60"}, nil},
		{[]string{"-schedulers", "10", "-snapshot-interval", "60"}, &hawk.SchedulerSpec{Count: 10, SnapshotInterval: 60}},
		{[]string{"-schedulers", "10"}, &hawk.SchedulerSpec{Count: 10}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		sc := Register(fs)
		if err := fs.Parse(c.argv); err != nil {
			t.Fatal(err)
		}
		var got hawk.Config
		err := sc.Apply(&got)
		if c.want != nil {
			if err != nil || !reflect.DeepEqual(got.Schedulers, c.want) {
				t.Errorf("%v: Schedulers = %+v, err %v; want %+v", c.argv, got.Schedulers, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: Apply built %+v, want an error", c.argv, got)
		} else if msg := err.Error(); !strings.Contains(msg, "-snapshot-interval") || !strings.Contains(msg, "-schedulers") {
			t.Errorf("%v: the error does not name both flags: %v", c.argv, err)
		}
	}
}

// The same rule for every flag that only parameterizes a plane: alone it used
// to be dropped and the static, lossless model ran; it is an error naming
// the flag and the one that switches its plane on. With that flag it is
// accepted.
func TestApplyDependentFlagNeedsItsPlane(t *testing.T) {
	for _, c := range []struct {
		argv  []string
		names []string // nil = accepted
	}{
		{[]string{"-fault-retries", "8"}, []string{"-fault-retries 8", "-msg-loss", "-jitter", "-straggle-nodes", "-speculate"}},
		{[]string{"-fault-retries", "8", "-msg-loss", "0.01"}, nil},
		{[]string{"-fault-retries", "8", "-jitter", "0.001"}, nil},
		{[]string{"-fault-retries", "8", "-straggle-nodes", "5"}, nil},
		{[]string{"-fault-retries", "8", "-speculate"}, nil},
		{[]string{"-fail-at", "20"}, []string{"-fail-at 20", "-fail-nodes"}},
		{[]string{"-recover-at", "50"}, []string{"-recover-at 50", "-fail-nodes"}},
		{[]string{"-fail-nodes", "0", "-recover-at", "50"}, []string{"-recover-at 50", "-fail-nodes"}},
		{[]string{"-fail-nodes", "10", "-fail-at", "20", "-recover-at", "50"}, nil},
		{[]string{"-central-up", "9"}, []string{"-central-up 9", "-central-down"}},
		{[]string{"-central-down", "4", "-central-up", "9"}, nil},
		{[]string{"-straggle-at", "5"}, []string{"-straggle-at 5", "-straggle-nodes"}},
		{[]string{"-straggle-nodes", "5", "-straggle-at", "5"}, nil},
		{[]string{"-scheduler-recover-at", "70"}, []string{"-scheduler-recover-at 70", "-scheduler-fail-at"}},
		{[]string{"-schedulers", "2", "-scheduler-recover-at", "70"}, []string{"-scheduler-recover-at 70", "-scheduler-fail-at"}},
		{[]string{"-schedulers", "2", "-scheduler-fail-at", "30", "-scheduler-recover-at", "70"}, nil},
		// The command line that used to run the static, lossless model.
		{[]string{"-fault-retries", "8", "-recover-at", "50", "-straggle-at", "5", "-central-up", "9"}, []string{"-fail-nodes"}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		sc := Register(fs)
		if err := fs.Parse(c.argv); err != nil {
			t.Fatal(err)
		}
		var got hawk.Config
		err := sc.Apply(&got)
		if c.names == nil {
			if err != nil {
				t.Errorf("%v: %v", c.argv, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: Apply built %+v, want an error", c.argv, got)
			continue
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: the error does not name %s: %v", c.argv, name, err)
			}
		}
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
