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
// kernels may hand on to the child (see below).
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
	cmd := exec.Command(bin, "-workload", "google", "-jobs", "200000", "-stats=false", "-out", filepath.Join(dir, "x.trace.gz"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hawkgen: %v\n%s", err, out)
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
