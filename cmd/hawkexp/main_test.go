package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the hawkexp binary TestMain builds once: exit codes and the
// stdout/stderr split are what the tests below are about.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hawkexp-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "hawkexp")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building hawkexp: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// hawkexp runs the binary on argv and returns its exit code and output.
func hawkexp(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, argv...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("hawkexp %v: %v", argv, err)
	}
	return cmd.ProcessState.ExitCode(), o.String(), e.String()
}

func TestListPrintsEveryExperimentOnce(t *testing.T) {
	code, stdout, _ := hawkexp(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	listed := map[string]int{}
	for _, line := range strings.Split(stdout, "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]]++
		}
	}
	for _, e := range registry() {
		if listed[e.id] != 1 {
			t.Errorf("-list names %q %d times, want once", e.id, listed[e.id])
		}
	}
	if len(listed) != len(registry()) {
		t.Errorf("-list names %d ids, the registry has %d:\n%s", len(listed), len(registry()), stdout)
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	code, _, stderr := hawkexp(t, "-exp", "fig99")
	if code != 2 || !strings.Contains(stderr, `unknown experiment "fig99"`) {
		t.Errorf("exit code %d, stderr %q; want 2 and the unknown-experiment message", code, stderr)
	}
}

// -policy names one of the four policies; anything else exits 2 with a
// message listing them.
func TestUnknownPolicyExits2(t *testing.T) {
	code, stdout, stderr := hawkexp(t, "-exp", "table1", "-policy", "bogus")
	if code != 2 || !strings.Contains(stderr, `unknown policy "bogus"`) {
		t.Errorf("exit code %d, stderr %q; want 2 and the unknown-policy message", code, stderr)
	}
	for _, name := range []string{"centralized", "hawk", "sparrow", "split"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("the message does not name %q: %s", name, stderr)
		}
	}
	if stdout != "" {
		t.Errorf("a refused command line still ran: %q", stdout)
	}
}

// hawkexp takes hawksim's scenario flags and refuses what hawksim refuses:
// -snapshot-interval without -schedulers ran every figure on the
// single-scheduler model without saying so.
func TestSnapshotIntervalNeedsSchedulers(t *testing.T) {
	code, stdout, stderr := hawkexp(t, "-exp", "table1", "-numjobs", "500", "-snapshot-interval", "60")
	if code != 2 || !strings.Contains(stderr, "-snapshot-interval 60") || !strings.Contains(stderr, "-schedulers") {
		t.Errorf("exit code %d, stderr %q; want 2 and a message naming both flags", code, stderr)
	}
	if stdout != "" {
		t.Errorf("a refused command line still ran: %q", stdout)
	}
}

// ... and a fault knob without a fault flag, which ran every figure lossless.
func TestDependentFlagNeedsItsPlane(t *testing.T) {
	code, stdout, stderr := hawkexp(t, "-exp", "table1", "-numjobs", "500", "-fault-retries", "8")
	if code != 2 || !strings.Contains(stderr, "-fault-retries 8") || !strings.Contains(stderr, "-msg-loss") {
		t.Errorf("exit code %d, stderr %q; want 2 and a message naming both flags", code, stderr)
	}
	if stdout != "" {
		t.Errorf("a refused command line still ran: %q", stdout)
	}
}

func TestTable1PrintsTheFourWorkloads(t *testing.T) {
	code, stdout, stderr := hawkexp(t, "-exp", "table1", "-numjobs", "500")
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr)
	}
	for _, w := range []string{"google", "cloudera", "facebook", "yahoo"} {
		if n := strings.Count(stdout, "\n"+w+" "); n != 1 {
			t.Errorf("table1 has %d %s rows, want 1:\n%s", n, w, stdout)
		}
	}
}

// -quick sets the scale only where the command line does not: an explicit
// -numjobs is the trace size at -quick too (it was dropped for 4 000).
func TestQuickKeepsExplicitNumJobs(t *testing.T) {
	code, stdout, stderr := hawkexp(t, "-exp", "table2", "-quick", "-numjobs", "2000")
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr)
	}
	for _, w := range []string{"google", "cloudera", "facebook", "yahoo"} {
		i := strings.Index(stdout, "\n"+w+" ")
		if i < 0 {
			t.Fatalf("table2 has no %s row:\n%s", w, stdout)
		}
		row := strings.Fields(stdout[i+1:])[:3]
		if row[2] != "2000" {
			t.Errorf("table2 %s row %v counts %s jobs, want 2000", w, row, row[2])
		}
	}
}

// The two design-argument ablations are reachable from the command (they
// were `go test -bench` only), and at -quick print the numbers the root
// package's BenchmarkAblation* reported at the same scale and seed before it
// was deleted.
func TestAblationsPrintThePinnedRows(t *testing.T) {
	for _, c := range []struct {
		id   string
		rows []string
	}{
		{"ablation-steal", []string{
			"figure3-group    | 0.29 0.36 |",
			"random-positions | 0.29 0.37 |",
		}},
		{"ablation-probes", []string{
			"sparrow     1 | 7.56 ", "sparrow     2 | 1.00 1.00 |", "sparrow     3 | 0.55 ", "sparrow     4 | 0.40 ",
			"hawk        1 | 3.77 ", "hawk        2 | 1.00 1.00 |", "hawk        3 | 0.80 ", "hawk        4 | 0.74 ",
		}},
	} {
		code, stdout, stderr := hawkexp(t, "-exp", c.id, "-quick")
		if code != 0 {
			t.Fatalf("%s: exit code %d; stderr: %s", c.id, code, stderr)
		}
		for _, row := range c.rows {
			if !strings.Contains(stdout, "\n"+row) {
				t.Errorf("%s: no row starting %q:\n%s", c.id, row, stdout)
			}
		}
	}
}

// fig1 builds its own fixed configuration, and table1 runs no simulation.
// Whatever part of the scenario overlay the command line asked for, the run
// says it was ignored and names the flags — -schedulers, the fault flags and
// -net-delay used to be dropped without a word by fig1, and every flag by
// table1, table2 and fig4.
func TestFixedConfigExperimentNamesIgnoredOverlay(t *testing.T) {
	for _, c := range []struct {
		exp, note  string
		argv, want []string
	}{
		{"fig1", "fig1 builds its own fixed configuration", []string{"-msg-loss", "0.01"}, []string{"-msg-loss"}},
		{"fig1", "fig1 builds its own fixed configuration", []string{"-schedulers", "4"}, []string{"-schedulers"}},
		{"fig1", "fig1 builds its own fixed configuration", []string{"-net-delay", "0.001"}, []string{"-net-delay"}},
		{"fig1", "fig1 builds its own fixed configuration", []string{"-fail-nodes", "10", "-fail-at", "5", "-speed-skew", "0.2"},
			[]string{"-fail-nodes", "-fail-at", "-speed-skew"}},
		{"table1", "table1 runs no simulation", []string{"-numjobs", "500", "-msg-loss", "0.01"}, []string{"-msg-loss"}},
	} {
		code, _, stderr := hawkexp(t, append([]string{"-exp", c.exp}, c.argv...)...)
		if code != 0 {
			t.Fatalf("%s %v: exit code %d; stderr: %s", c.exp, c.argv, code, stderr)
		}
		if !strings.Contains(stderr, c.note) {
			t.Errorf("%s %v: no ignored-overlay note on stderr: %q", c.exp, c.argv, stderr)
		}
		for _, f := range c.want {
			if !strings.Contains(stderr, " "+f) {
				t.Errorf("%s %v: the note does not name %s: %q", c.exp, c.argv, f, stderr)
			}
		}
	}
	// Knobs whose enabling flag is unset build no overlay: nothing was
	// ignored. (Only the two with a non-zero default can be given alone; the
	// rest are refused: TestDependentFlagNeedsItsPlane.)
	if _, _, stderr := hawkexp(t, "-exp", "fig1", "-slow-speed", "0.1", "-straggle-factor", "9"); stderr != "" {
		t.Errorf("dependent knobs alone: unexpected stderr %q", stderr)
	}
}
