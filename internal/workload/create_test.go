package workload

import (
	"os"
	"path/filepath"
	"testing"
)

// writeVia writes data to path through CreateFile.
func writeVia(t *testing.T, path, data string) {
	t.Helper()
	f, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCreateFileReplacesRegularFile: an existing regular file is replaced,
// not truncated in place, so a hard link to it keeps the old bytes; a
// missing path is created. SaveSource, which opens its file here, rewrites
// a trace over an older one.
func TestCreateFileReplacesRegularFile(t *testing.T) {
	dir := t.TempDir()
	path, link := filepath.Join(dir, "out.csv"), filepath.Join(dir, "link.csv")
	writeVia(t, path, "old bytes, longer than the new ones\n")
	if err := os.Link(path, link); err != nil {
		t.Fatal(err)
	}
	writeVia(t, path, "new\n")
	if got := readFile(t, path); got != "new\n" {
		t.Fatalf("path holds %q, want %q", got, "new\n")
	}
	if got := readFile(t, link); got != "old bytes, longer than the new ones\n" {
		t.Fatalf("hard link holds %q: the old inode was truncated in place", got)
	}

	trace := filepath.Join(dir, "t.trace")
	for _, jobs := range []int{40, 3} {
		tr := Generate(Google(), GenConfig{NumJobs: jobs, MeanInterArrival: 1, Seed: 6})
		if err := SaveSource(trace, NewTraceSource(tr)); err != nil {
			t.Fatal(err)
		}
	}
	if tr, err := LoadFile(trace); err != nil || tr.Len() != 3 {
		t.Fatalf("rewritten trace: err %v; want 3 jobs", err)
	}
}

// TestCreateFileThroughSymlink: a symlink is not removed; its target is
// written and the link stays a link.
func TestCreateFileThroughSymlink(t *testing.T) {
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target"), filepath.Join(dir, "link")
	writeVia(t, target, "old\n")
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	writeVia(t, link, "new\n")
	fi, err := os.Lstat(link)
	if err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("link after the write: %v, err %v; want a symlink", fi.Mode(), err)
	}
	if got := readFile(t, target); got != "new\n" {
		t.Fatalf("target holds %q, want %q", got, "new\n")
	}
}
