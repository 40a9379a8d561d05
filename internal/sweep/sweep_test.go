package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testTrace(seed int64) *workload.Trace {
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 200, MeanInterArrival: 2.3, Seed: seed,
	})
}

// poolSizes are the worker counts the Map semantics tests run under: a pool
// of one worker is the serial case, and has no path of its own.
var poolSizes = []int{1, 8}

func TestMapOrderingAndResults(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	for _, jobs := range poolSizes {
		got, err := Map(context.Background(), items, jobs, func(_ context.Context, i, v int) (int, error) {
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
	_, err := Map(context.Background(), items, jobs, func(_ context.Context, i, _ int) (int, error) {
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
	// item 1's, however the goroutines race.
	for _, jobs := range poolSizes {
		for trial := 0; trial < 10; trial++ {
			_, err := Map(context.Background(), items, jobs, func(_ context.Context, i, _ int) (int, error) {
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
		_, err := Map(context.Background(), items, int(c.jobs), func(_ context.Context, i, _ int) (int, error) {
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

func TestMapContextCancellation(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		release := make(chan struct{})
		items := make([]int, 100)
		done := make(chan struct{})
		var err error
		go func() {
			defer close(done)
			_, err = Map(ctx, items, jobs, func(ctx context.Context, i, _ int) (int, error) {
				started.Add(1)
				<-release
				return 0, nil
			})
		}()
		cancel()
		close(release)
		<-done
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs %d: err = %v, want context.Canceled", jobs, err)
		}
		if n := started.Load(); n > int64(2*jobs) {
			t.Fatalf("jobs %d: %d items ran after cancellation", jobs, n)
		}
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := Map(ctx, []int{1, 2, 3}, 1, func(_ context.Context, i, _ int) (int, error) {
		ran = true
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran despite pre-cancelled context")
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil, 4, func(_ context.Context, i, _ int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestSweepMatchesSerialRuns is the core determinism property: a parallel
// sweep returns exactly the reports a serial loop over sim.Run produces.
func TestSweepMatchesSerialRuns(t *testing.T) {
	tr := testTrace(1)
	var pts []Point
	for _, nodes := range []int{2000, 3000, 4000} {
		for _, pol := range []string{"hawk", "sparrow"} {
			pts = append(pts, Point{Trace: tr, Config: policy.Config{NumNodes: nodes, Policy: pol, Seed: 42}})
		}
	}
	want := make([]*policy.Report, len(pts))
	for i, p := range pts {
		r, err := sim.Run(p.Trace, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := Sweep{Points: pts, Jobs: 4}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("point %d: parallel report differs from serial run", i)
		}
	}
}

func TestSweepErrorNamesPoint(t *testing.T) {
	tr := testTrace(2)
	pts := []Point{
		{Trace: tr, Config: policy.Config{NumNodes: 2000, Policy: "hawk", Seed: 1}},
		{Trace: tr, Config: policy.Config{NumNodes: 0, Policy: "hawk", Seed: 1}}, // invalid
	}
	_, err := Sweep{Points: pts, Jobs: 2}.Run(context.Background())
	if err == nil {
		t.Fatal("expected error from invalid point")
	}
	if !strings.Contains(err.Error(), "sweep point 1") {
		t.Fatalf("error %q does not identify the failing point", err)
	}
}

func TestSweepCustomEngine(t *testing.T) {
	tr := testTrace(3)
	calls := 0
	eng := func(tt *workload.Trace, cfg policy.Config) (*policy.Report, error) {
		calls++
		return &policy.Report{Engine: "fake", Policy: cfg.Policy}, nil
	}
	got, err := Sweep{
		Points: []Point{{Trace: tr, Config: policy.Config{NumNodes: 1, Policy: "hawk"}}},
		Engine: eng,
		Jobs:   1,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || got[0].Engine != "fake" {
		t.Fatalf("custom engine not used: calls=%d, engine=%q", calls, got[0].Engine)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if s < 0 {
			t.Fatalf("DeriveSeed(42, %d) = %d, want non-negative", i, s)
		}
		if seen[s] {
			t.Fatalf("DeriveSeed(42, %d) = %d collides with an earlier index", i, s)
		}
		seen[s] = true
		if s != DeriveSeed(42, i) {
			t.Fatalf("DeriveSeed not deterministic at index %d", i)
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("different bases should derive different seeds")
	}
}

func TestSeededPoints(t *testing.T) {
	tr := testTrace(4)
	cfg := policy.Config{NumNodes: 100, Policy: "hawk"}
	pts := SeededPoints(tr, cfg, 7, 5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Trace != tr {
			t.Fatalf("point %d: trace not shared", i)
		}
		if p.Config.Seed != DeriveSeed(7, i) {
			t.Fatalf("point %d: seed %d, want DeriveSeed(7, %d)", i, p.Config.Seed, i)
		}
		if p.Config.NumNodes != 100 || p.Config.Policy != "hawk" {
			t.Fatalf("point %d: config fields not preserved: %+v", i, p.Config)
		}
	}
}
