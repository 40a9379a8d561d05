package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// poolSizes are the worker counts the parallelMap semantics tests run
// under: a pool of one worker is the serial case, and has no path of its
// own.
var poolSizes = []int{1, 8}

func TestMapOrderingAndResults(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	for _, jobs := range poolSizes {
		got, err := parallelMap(items, jobs, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs %d: results[%d] = %d, want %d — ordering must be stable", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapRespectsWorkerBound(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	items := make([]int, 40)
	_, err := parallelMap(items, jobs, func(i, _ int) (int, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("observed %d concurrent workers, bound is %d", p, jobs)
	}
}

func TestMapFirstErrorIsLowestIndex(t *testing.T) {
	items := make([]int, 64)
	// Every odd item fails; the reported error must deterministically be
	// item 1's, however the goroutines race. The first items, one per
	// worker, wait for each other, so several odd items fail at once.
	for _, jobs := range poolSizes {
		for trial := 0; trial < 10; trial++ {
			var arrived sync.WaitGroup
			arrived.Add(jobs)
			_, err := parallelMap(items, jobs, func(i, _ int) (int, error) {
				if i < jobs {
					arrived.Done()
					arrived.Wait()
				}
				if i%2 == 1 {
					return 0, fmt.Errorf("item %d failed", i)
				}
				return 0, nil
			})
			if err == nil {
				t.Fatal("expected error")
			}
			if got := err.Error(); got != "item 1 failed" {
				t.Fatalf("jobs %d, trial %d: error = %q, want lowest-indexed failure \"item 1 failed\"", jobs, trial, got)
			}
		}
	}
}

func TestMapStopsClaimingAfterError(t *testing.T) {
	for _, c := range []struct{ jobs, most int64 }{{1, 1}, {2, 10}} {
		var started atomic.Int64
		items := make([]int, 1000)
		_, err := parallelMap(items, int(c.jobs), func(i, _ int) (int, error) {
			started.Add(1)
			return 0, errors.New("boom")
		})
		if err == nil {
			t.Fatal("expected error")
		}
		if n := started.Load(); n > c.most {
			t.Fatalf("jobs %d: %d items started after first error; pool should stop claiming", c.jobs, n)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := parallelMap(nil, 4, func(i, _ int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// A failed run names its point: index, policy, cluster size and seed.
func TestSweepErrorNamesPoint(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 200, MeanInterArrival: 2.3, Seed: 2,
	})
	cfgs := []policy.Config{
		{NumNodes: 2000, Policy: "hawk", Seed: 1},
		{NumNodes: 0, Policy: "hawk", Seed: 1}, // invalid
	}
	_, err := runConfigs(tr, cfgs, Scale{Workers: 2})
	if err == nil {
		t.Fatal("expected error from invalid point")
	}
	if want := `sweep point 1 (policy "hawk", 0 nodes, seed 1): `; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not start with %q", err, want)
	}
}

// TestFig7SerialVsParallelByteIdentical is the worker pool's headline
// guarantee at figure granularity: running Fig7 at QuickScale serially
// (Workers=1) and in parallel (Workers=8) must produce byte-identical
// reports for the same seed.
func TestFig7SerialVsParallelByteIdentical(t *testing.T) {
	t.Parallel()
	serial := QuickScale()
	serial.Workers = 1
	parallel := QuickScale()
	parallel.Workers = 8

	rowsSerial, err := Fig7(serial)
	if err != nil {
		t.Fatal(err)
	}
	rowsParallel, err := Fig7(parallel)
	if err != nil {
		t.Fatal(err)
	}

	bs, err := json.Marshal(rowsSerial)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := json.Marshal(rowsParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs, bp) {
		t.Fatalf("serial and parallel Fig7 reports differ:\nserial:   %s\nparallel: %s", bs, bp)
	}
}

// TestTable1SerialVsParallel covers the drivers that map over workloads: the
// parallel table must equal the serial one row for row.
func TestTable1SerialVsParallel(t *testing.T) {
	t.Parallel()
	serial := Scale{NumJobs: 1000, Seed: 42, Workers: 1}
	parallel := serial
	parallel.Workers = 4
	a, err := Table1(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
