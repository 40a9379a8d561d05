//go:build unix

package workload

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestCreateFileFIFO: a FIFO is opened, not replaced by a regular file, and
// what is written reaches its reader. The reader opens without blocking
// first, so the writer's open finds it.
func TestCreateFileFIFO(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	r, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	writeVia(t, fifo, "through the pipe\n")
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "through the pipe\n" {
		t.Fatalf("reader got %q, err %v", got, err)
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("fifo after the write: %v, err %v; want a named pipe", fi.Mode(), err)
	}
}
