package main

import (
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestStreamedRecordingPeakRSS pins, at process level, that a generated
// workload recorded with -stats=false costs O(jobs in flight), not O(jobs):
// the generator drains straight into the gzip writer. On a 2-vCPU Xeon this
// run peaks at 3.4-3.7 MB; materializing the 200 000-job trace first, as
// hawkgen used to for every -out, peaked at 61 MB. The limit sits between
// the two and above this test process's own peak (24 MB), which some
// kernels hand on to the child (see below).
func TestStreamedRecordingPeakRSS(t *testing.T) {
	const limitKB = 32 << 10
	if testing.Short() {
		t.Skip("builds hawkgen and records a 200 000-job trace; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hawkgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hawkgen: %v\n%s", err, out)
	}
	// Linux starts a child's ru_maxrss at the high-water mark of the process
	// that forked it, so that has to be below the limit for the child's
	// figure to be the child's.
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil || self.Maxrss >= limitKB {
		t.Skipf("this process peaked at %d KB itself (getrusage: %v); cannot measure a child against %d KB", self.Maxrss, err, limitKB)
	}
	cmd := exec.Command(bin, "-workload", "google", "-jobs", "200000", "-stats=false", "-out", filepath.Join(dir, "x.trace.gz"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hawkgen: %v\n%s", err, out)
	}
	rss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss // KB on linux
	t.Logf("peak RSS %.1f MB (this process: %.1f MB)", float64(rss)/1024, float64(self.Maxrss)/1024)
	if rss >= limitKB {
		t.Errorf("peak RSS %d KB, want below %d KB", rss, limitKB)
	}
}
