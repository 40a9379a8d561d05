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
	cmd := exec.Command(bin, "-trace", trace, "-policy", "sparrow",
		"-dump", filepath.Join(dir, "jobs.csv"), "-json", filepath.Join(dir, "report.json"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hawksim: %v\n%s", err, out)
	}
	rss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss // KB on linux
	t.Logf("peak RSS %.1f MB", float64(rss)/1024)
	if rss < limitKB {
		return
	}
	// Whether a child's ru_maxrss can start at the high-water mark of the
	// process that started it depends on the kernel (on Linux 6.18 a hawkgen
	// child read 3.5 MB under a 22-24 MB test process), and an inherited mark
	// can only raise a reading. So a reading at the limit is the child's own
	// unless this process peaked there too, which leaves it inconclusive.
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	if self.Maxrss >= limitKB {
		t.Skipf("child peaked at %d KB, but this process peaked at %d KB itself; inconclusive against %d KB", rss, self.Maxrss, limitKB)
	}
	t.Errorf("peak RSS %d KB, want below %d KB", rss, limitKB)
}
