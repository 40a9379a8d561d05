// Package sweep fans independent scheduling runs out over a bounded worker
// pool.
//
// Every figure and table of the paper's evaluation is a sweep over
// independent (trace, config) points — node-count sweeps reach 170,000
// simulated nodes per series — and each point is a single-threaded
// simulation. This package is the fan-out layer between the experiment
// drivers and the engines: it executes a set of points concurrently while
// guaranteeing that the observable result is byte-identical to running the
// same points serially.
//
// The guarantees:
//
//   - Bounded concurrency: at most Jobs points run at once (default
//     runtime.GOMAXPROCS).
//   - Stable ordering: result i corresponds to point i, regardless of
//     completion order.
//   - Deterministic first-error propagation: if points fail, the error
//     reported is the lowest-indexed point's, not whichever goroutine
//     happened to lose the race. Remaining points are cancelled.
//   - Context cancellation: cancelling the context stops the sweep between
//     points and returns the context's error.
//
// Determinism of the aggregate falls out of determinism of the parts: a
// simulator run is a pure function of (trace, config, seed) — see the
// internal/eventq ordering invariant — runs share no mutable state (traces
// are read-only during runs, every random stream lives in a per-run
// Source), and results are reassembled in input order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Engine executes one run: a trace under a configuration. sim.Run and
// liverun.Run both satisfy it (as do the hawk package's re-exports).
type Engine func(*workload.Trace, policy.Config) (*policy.Report, error)

// Point is one run of a sweep. Points may share a *Trace: engines treat
// traces as read-only.
type Point struct {
	Trace  *workload.Trace
	Config policy.Config
}

// Sweep is a set of independent runs plus execution options.
type Sweep struct {
	Points []Point
	// Engine executes each point; nil selects the discrete-event
	// simulator.
	Engine Engine
	// Jobs bounds how many points run concurrently. Zero or negative
	// means one worker per available CPU (runtime.GOMAXPROCS).
	Jobs int
}

// Run executes the sweep and returns one report per point, in point order.
// On error the slice is nil and the error identifies the lowest-indexed
// failing point.
func (s Sweep) Run(ctx context.Context) ([]*policy.Report, error) {
	eng := s.Engine
	if eng == nil {
		eng = sim.Run
	}
	reports, err := Map(ctx, s.Points, s.Jobs, func(_ context.Context, i int, p Point) (*policy.Report, error) {
		r, err := eng(p.Trace, p.Config)
		if err != nil {
			return nil, fmt.Errorf("sweep point %d (policy %q, %d nodes, seed %d): %w",
				i, p.Config.Policy, p.Config.NumNodes, p.Config.Seed, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// Map runs fn over every item on a worker pool of the given size (zero or
// negative means runtime.GOMAXPROCS) and returns the results in item order.
//
// Items are claimed in index order. If any fn returns an error, the pool
// stops claiming new items and Map returns the error of the lowest-indexed
// failing item — a deterministic choice, so parallel error behavior is
// reproducible. If the context is cancelled and no item failed, Map returns
// the context's error. The result slice is only valid when the error is
// nil.
func Map[T, R any](ctx context.Context, items []T, jobs int, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(items) {
		jobs = len(items)
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next    atomic.Int64
		errMu   sync.Mutex
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(i int, err error) {
		errMu.Lock()
		if errIdx == -1 || i < errIdx {
			errIdx, firstEr = i, err
		}
		errMu.Unlock()
		cancel() // stop the pool claiming further items
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				r, err := fn(ctx, i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if errIdx != -1 {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// DeriveSeed deterministically derives the seed for point i of a multi-seed
// sweep from a base seed. It mixes (base, i) through splitmix64 so adjacent
// indices yield decorrelated streams — unlike base+i, which hands highly
// correlated states to simple generators. The result is non-negative and
// depends only on the arguments, so a sweep built from (base, 0..n-1) is
// reproducible no matter how its points are scheduled.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// SeededPoints builds n points running the same trace and configuration
// under n derived seeds — the shape of every "averaged over N runs" figure.
func SeededPoints(t *workload.Trace, cfg policy.Config, base int64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := cfg
		c.Seed = DeriveSeed(base, i)
		pts[i] = Point{Trace: t, Config: c}
	}
	return pts
}
