// Package policy defines the engine-agnostic scheduling API of this
// repository: the Policy interface, the string-keyed policy registry, the
// shared run Config consumed by both execution engines, and the unified
// Report every engine produces.
//
// A Policy decides *what* to do with a job — probe-sample a pool of nodes,
// hand the job to the centralized waiting-time queue — and which structural
// mechanisms (reserved short partition, randomized work stealing) are
// active. The execution engines (the discrete-event simulator in
// internal/sim and the live goroutine prototype in internal/liverun) decide
// *how* those decisions execute: event scheduling vs real goroutines, modelled
// vs injected network delay. Policies are built from the internal/core
// primitives, so the exact same policy code runs on both engines.
//
// The package is re-exported as the public top-level package hawk; external
// code should import repro/hawk.
//
// Policy decisions feed both engines' deterministic replay, so the package
// is guarded by hawklint's determinism analyzer:
//
//hawk:deterministic
//hawk:exporteddoc
package policy

import (
	"fmt"

	//hawk:allow registry-listing order only, once per process, never per event
	"sort"

	"sync"
)

// Pool identifies a set of candidate nodes relative to the cluster's
// partition (see core.Partition): the whole cluster, the general partition
// (nodes that may run long tasks), or the reserved short-only partition.
type Pool int

const (
	// PoolNone is the zero Pool: no nodes. Returned by CentralPool when a
	// policy has no centralized scheduler.
	PoolNone Pool = iota
	// PoolAll is every node in the cluster.
	PoolAll
	// PoolGeneral is the general partition (may run long tasks).
	PoolGeneral
	// PoolShort is the reserved short-only partition.
	PoolShort
)

// String names the pool for error messages and reports.
func (p Pool) String() string {
	switch p {
	case PoolNone:
		return "none"
	case PoolAll:
		return "all"
	case PoolGeneral:
		return "general"
	case PoolShort:
		return "short"
	default:
		return fmt.Sprintf("pool(%d)", int(p))
	}
}

// Action is the kind of placement a Decision requests.
type Action int

const (
	// ActionProbe places the job with Sparrow-style batch sampling:
	// ProbeRatio probes per task over the Decision's Pool (§3.5).
	ActionProbe Action = iota
	// ActionCentral places every task of the job with the centralized
	// waiting-time algorithm (§3.7) over the policy's CentralPool.
	ActionCentral
)

// String names the action.
func (a Action) String() string {
	if a == ActionCentral {
		return "central"
	}
	return "probe"
}

// Decision tells an engine how to place one job.
type Decision struct {
	// Action selects probe sampling or central assignment.
	Action Action
	// Pool is the probe candidate pool; meaningful only for ActionProbe.
	Pool Pool
}

// JobInfo is the engine-independent view of a job being routed. Long is the
// scheduler's classification of the job (it reflects mis-estimation when
// the run configures it).
type JobInfo struct {
	ID       int
	Tasks    int
	Estimate float64
	Long     bool
}

// Policy is a scheduling policy: given a classified job, decide where its
// work goes, and declare which cluster mechanisms the run needs. The four
// schedulers the Hawk paper evaluates — sparrow, hawk, centralized, split —
// are registered implementations; new policies plug in via Register without
// touching engine code.
type Policy interface {
	// String returns the registry name the policy was built from.
	String() string
	// ShortPartitionFraction is the fraction of nodes reserved for short
	// tasks (§3.4). Zero means no reservation.
	ShortPartitionFraction() float64
	// Route decides the placement of one job.
	Route(job JobInfo) Decision
	// CentralPool is the node pool the centralized waiting-time queue
	// spans, or PoolNone when the policy never assigns centrally.
	CentralPool() Pool
	// Steal reports whether idle nodes perform randomized work stealing
	// (§3.6).
	Steal() bool
}

// Factory builds a Policy instance from a (normalized) run configuration.
// The configuration carries the generic knobs — partition fraction, the
// Disable* ablation switches — that parameterize the built-in policies;
// custom factories are free to ignore it.
type Factory func(cfg Config) (Policy, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register makes a policy available under the given name. It panics if the
// name is empty or already taken, mirroring database/sql.Register: a
// duplicate registration is a programming error, not a runtime condition.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("policy: Register with empty name")
	}
	if f == nil {
		panic("policy: Register with nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: Register called twice for %q", name))
	}
	registry[name] = f
}

// Policies returns the sorted names of all registered policies.
func Policies() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry { //hawk:allow order-insensitive collect; names are sorted before being returned
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Registered reports whether a policy name is in the registry, without
// instantiating anything. Config.Normalize uses it so a custom factory
// that rejects some configurations is never probed with a fabricated one.
func Registered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// New instantiates the named policy for a run configuration.
func New(name string, cfg Config) (Policy, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Policies())
	}
	return f(cfg)
}
