package main

import (
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestRetainedRunPeakRSS pins, at process level, what the benchmark's
// sparrow_retained_gz workload measures: a run that keeps per-job reports
// and writes both of them out costs O(jobs), not O(queue entries). Sparrow
// probes twice per task, so the 20 000-job trace makes about a million
// queue entries; retaining each one's wait and building the JSON document
// in memory took this run to 54-62 MB, and it is 30 MB without.
func TestRetainedRunPeakRSS(t *testing.T) {
	const limitKB = 40 << 10
	if testing.Short() {
		t.Skip("builds hawksim and runs a 20 000-job simulation; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hawksim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hawksim: %v\n%s", err, out)
	}
	trace, _ := saveTrace(t, "google.trace.gz", 20000)
	// Linux starts a child's ru_maxrss at the high-water mark of the process
	// that forked it (14 MB for this one), so that has to be below the limit
	// for the child's figure to be the child's.
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil || self.Maxrss >= limitKB {
		t.Skipf("this process peaked at %d KB itself (getrusage: %v); cannot measure a child against %d KB", self.Maxrss, err, limitKB)
	}
	cmd := exec.Command(bin, "-trace", trace, "-policy", "sparrow",
		"-dump", filepath.Join(dir, "jobs.csv"), "-json", filepath.Join(dir, "report.json"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hawksim: %v\n%s", err, out)
	}
	rss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss // KB on linux
	t.Logf("peak RSS %.1f MB", float64(rss)/1024)
	if rss >= limitKB {
		t.Errorf("peak RSS %d KB, want below %d KB", rss, limitKB)
	}
}
