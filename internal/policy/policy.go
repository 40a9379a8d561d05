// Package policy defines the engine-agnostic scheduling API of this
// repository: the four schedulers the paper evaluates as one Policy value
// each, the shared run Config consumed by both execution engines, and the
// unified Report every engine produces.
//
// A Policy says *what* to do with a job of each class — probe-sample a pool
// of nodes, or hand the job to the centralized waiting-time queue — and
// which structural mechanisms (reserved short partition, randomized work
// stealing) are active. The execution engines (the discrete-event simulator
// in internal/sim and the live goroutine prototype in internal/liverun)
// decide *how* those decisions execute: event scheduling vs real goroutines,
// modelled vs injected network delay. Both engines read the same Policy
// value, so a scheduler is defined once for both.
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
	"strings"
)

// Pool identifies a set of candidate nodes relative to the cluster's
// partition (see core.Partition): the whole cluster, the general partition
// (nodes that may run long tasks), or the reserved short-only partition.
type Pool int

const (
	// PoolNone is the zero Pool: no nodes. A Policy's CentralPool when it
	// has no centralized scheduler.
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

// Policy is one of the four schedulers the paper evaluates, resolved from a
// run Config by New: where a job of each class goes, and which cluster
// mechanisms the run needs. A central decision always comes with a
// CentralPool other than PoolNone.
type Policy struct {
	// Name is the policy's name: "centralized", "hawk", "sparrow" or
	// "split".
	Name string
	// ShortPartitionFraction is the fraction of nodes reserved for short
	// tasks (§3.4). Zero means no reservation.
	ShortPartitionFraction float64
	// Short and Long place a job the scheduler classifies as short or long
	// (the classification reflects mis-estimation when the run configures
	// it).
	Short, Long Decision
	// CentralPool is the node pool the centralized waiting-time queue
	// spans, or PoolNone when the policy never assigns centrally.
	CentralPool Pool
	// Steal reports whether idle nodes perform randomized work stealing
	// (§3.6).
	Steal bool
}

// Route decides the placement of a job of the given class.
func (p Policy) Route(long bool) Decision {
	if long {
		return p.Long
	}
	return p.Short
}

// Policies returns the sorted names of the four policies.
func Policies() []string { return []string{"centralized", "hawk", "sparrow", "split"} }

// New resolves the named policy under a run configuration: its partition
// fraction, and the three Figure 7 ablation switches, which carve Hawk's
// mechanisms out one at a time (DisablePartition also empties split's short
// partition).
func New(name string, cfg Config) (Policy, error) {
	frac := cfg.ShortPartitionFraction
	if cfg.DisablePartition {
		frac = 0
	}
	probeAll := Decision{Action: ActionProbe, Pool: PoolAll}
	central := Decision{Action: ActionCentral}
	switch name {
	case "sparrow":
		// The fully distributed baseline: batch sampling over the whole
		// cluster for every job.
		return Policy{Name: name, Short: probeAll, Long: probeAll}, nil
	case "hawk":
		// Long jobs centrally placed in the general partition, short jobs
		// probed over the whole cluster — the short partition plus any idle
		// general node (§3.4, §3.5) — and randomized work stealing.
		p := Policy{Name: name, ShortPartitionFraction: frac, Short: probeAll, Long: central,
			CentralPool: PoolGeneral, Steal: !cfg.DisableStealing}
		if cfg.DisableCentral {
			p.Long, p.CentralPool = Decision{Action: ActionProbe, Pool: PoolGeneral}, PoolNone
		}
		return p, nil
	case "centralized":
		// The §3.7 centralized algorithm over the whole cluster for every
		// job.
		return Policy{Name: name, Short: central, Long: central, CentralPool: PoolAll}, nil
	case "split":
		// The §4.6 baseline: short jobs probe only the short partition, long
		// jobs are centrally placed in the general one; no overlap.
		return Policy{Name: name, ShortPartitionFraction: frac,
			Short: Decision{Action: ActionProbe, Pool: PoolShort}, Long: central, CentralPool: PoolGeneral}, nil
	}
	return Policy{}, unknownPolicy(name)
}

func unknownPolicy(name string) error {
	return fmt.Errorf("policy: unknown policy %q (one of: %s)", name, strings.Join(Policies(), ", "))
}
