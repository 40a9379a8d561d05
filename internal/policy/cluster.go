package policy

import (
	"fmt"
	"math"

	"repro/internal/randdist"
)

// The scenario spec for the dynamic cluster model: scripted membership
// transitions (node failures and recoveries, central-scheduler outages) and
// per-node speed heterogeneity. Both engines consume the same spec — the
// simulator turns churn events into typed simulation events on its virtual
// clock, the live engine replays them on a real-time controller — so a
// scenario written once runs on either. A Config with neither field set is
// the static, homogeneous cluster of the paper's baseline evaluation, and
// engines keep their fast paths (and byte-identical output) in that case.

// ChurnKind names one kind of scripted cluster transition.
type ChurnKind string

const (
	// ChurnFail removes a node from the cluster at the event time. Work on
	// the node is lost and re-routed: queued and in-flight probes are
	// re-sent to live nodes in the job's pool, queued and running centrally
	// placed tasks are re-assigned by the central scheduler, and a task
	// that was mid-execution re-executes from scratch elsewhere.
	ChurnFail ChurnKind = "fail"
	// ChurnRecover returns a node to the cluster, idle and empty.
	ChurnRecover ChurnKind = "recover"
	// ChurnCentralDown takes the centralized scheduler offline: jobs and
	// re-routed tasks that need central placement queue in a backlog until
	// it returns. Distributed probing and stealing continue — the paper's
	// §4 resilience argument.
	ChurnCentralDown ChurnKind = "central-down"
	// ChurnCentralUp brings the centralized scheduler back and drains the
	// backlog in arrival order.
	ChurnCentralUp ChurnKind = "central-up"
	// ChurnSchedFail fails one distributed scheduler (Node = scheduler id;
	// requires Config.Schedulers). Its queued retries and owned jobs are
	// re-assigned to the surviving schedulers by re-hashing; while no
	// scheduler is live, newly submitted jobs wait for a recovery.
	ChurnSchedFail ChurnKind = "scheduler-fail"
	// ChurnSchedRecover returns a failed scheduler to service with a fresh
	// cluster snapshot and drains work that waited on it.
	ChurnSchedRecover ChurnKind = "scheduler-recover"
)

// ChurnEvent is one scripted transition.
type ChurnEvent struct {
	// At is the event time in seconds: simulated seconds in the simulator,
	// real seconds since run start in the live engine.
	At float64 `json:"at"`
	// Kind selects the transition.
	Kind ChurnKind `json:"kind"`
	// Node is the explicit target node id for fail/recover events when
	// Count is zero.
	Node int `json:"node,omitempty"`
	// Count, when positive, targets Count nodes picked uniformly at random
	// (from the live set for fail, the dead set for recover) by the run's
	// seeded churn stream instead of the explicit Node.
	Count int `json:"count,omitempty"`
}

// ChurnSpec scripts a run's cluster transitions. Events fire in the listed
// order for equal times; the schedule is deterministic for a given seed.
type ChurnSpec struct {
	Events []ChurnEvent `json:"events"`
}

// validate checks the spec against the node count and the scheduler
// count (zero when the multi-scheduler model is off, which rejects
// scheduler events: they would have no schedulers to act on).
func (s *ChurnSpec) validate(numNodes, schedulers int) error {
	for i, ev := range s.Events {
		if !finiteNonNegative(ev.At) {
			return fmt.Errorf("config: churn event %d: At must be finite and non-negative, got %g", i, ev.At)
		}
		switch ev.Kind {
		case ChurnFail, ChurnRecover:
			if ev.Count < 0 {
				return fmt.Errorf("config: churn event %d: negative count %d", i, ev.Count)
			}
			if ev.Count == 0 && (ev.Node < 0 || ev.Node >= numNodes) {
				return fmt.Errorf("config: churn event %d: node %d outside [0, %d)", i, ev.Node, numNodes)
			}
			if ev.Count > numNodes {
				return fmt.Errorf("config: churn event %d: count %d exceeds %d nodes", i, ev.Count, numNodes)
			}
		case ChurnCentralDown, ChurnCentralUp:
			// No target.
		case ChurnSchedFail, ChurnSchedRecover:
			if schedulers == 0 {
				return fmt.Errorf("config: churn event %d: %s requires Config.Schedulers", i, ev.Kind)
			}
			if ev.Count != 0 {
				return fmt.Errorf("config: churn event %d: %s targets one scheduler by Node, not Count", i, ev.Kind)
			}
			if ev.Node < 0 || ev.Node >= schedulers {
				return fmt.Errorf("config: churn event %d: scheduler %d outside [0, %d)", i, ev.Node, schedulers)
			}
		default:
			return fmt.Errorf("config: churn event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// MaxConcurrentFailures returns the worst-case number of simultaneously
// dead nodes over the scripted timeline — the margin the feasibility check
// subtracts from every probe pool, so a scenario that could shrink a pool
// below the widest job is rejected before the run instead of deadlocking
// inside it. It is an upper bound whatever nodes the seeded Count events
// pick.
func (s *ChurnSpec) MaxConcurrentFailures() int {
	if s == nil {
		return 0
	}
	// Events apply in time order (stable for ties, matching the engines).
	evs := make([]ChurnEvent, 0, len(s.Events))
	for _, ev := range s.Events {
		if ev.Kind == ChurnFail || ev.Kind == ChurnRecover {
			evs = append(evs, ev)
		}
	}
	// Stable insertion sort by time (specs are short).
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].At < evs[j-1].At; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	// down bounds the dead count; dead holds the explicitly failed nodes
	// that are certainly still dead. Only recovering one of those certainly
	// revives a node: an explicit recover of any other may find it alive,
	// and a Count recover may pick any dead node, so after one no explicit
	// failure is certainly still in place.
	dead := map[int]bool{}
	down, worst := 0, 0
	for _, ev := range evs {
		switch {
		case ev.Kind == ChurnFail && ev.Count > 0:
			down += ev.Count
		case ev.Kind == ChurnFail:
			if !dead[ev.Node] {
				dead[ev.Node] = true
				down++
			}
		case ev.Count > 0:
			down = max(down-ev.Count, 0) // recovering more than failed is a no-op
			clear(dead)
		case dead[ev.Node]:
			delete(dead, ev.Node)
			down--
		}
		worst = max(worst, down)
	}
	return worst
}

// SpeedClass is one heterogeneity class: Fraction of the cluster runs at
// the given Speed factor (1 = nominal; a task of duration d takes d/Speed
// seconds on the node).
type SpeedClass struct {
	Fraction float64 `json:"fraction"`
	Speed    float64 `json:"speed"`
}

// Heterogeneity configures per-node speed factors. Nodes are assigned to
// classes by a seeded draw, so the assignment is deterministic per (seed,
// cluster size); any fraction not covered by a class runs at speed 1.
type Heterogeneity struct {
	Classes []SpeedClass `json:"classes"`
}

// validate checks fractions and speeds.
func (h *Heterogeneity) validate() error {
	sum := 0.0
	for i, c := range h.Classes {
		if c.Fraction < 0 || c.Fraction > 1 || math.IsNaN(c.Fraction) {
			return fmt.Errorf("config: heterogeneity class %d: fraction %g outside [0, 1]", i, c.Fraction)
		}
		if c.Speed <= 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
			return fmt.Errorf("config: heterogeneity class %d: speed %g must be positive and finite", i, c.Speed)
		}
		sum += c.Fraction
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("config: heterogeneity class fractions sum to %g > 1", sum)
	}
	return nil
}

// uniform reports whether the classes leave every node at speed 1, in which
// case engines skip the heterogeneous path entirely.
func (h *Heterogeneity) uniform() bool {
	for _, c := range h.Classes {
		if c.Fraction > 0 && c.Speed != 1 {
			return false
		}
	}
	return true
}

// Factors materializes the per-node speed slice for a cluster of n nodes:
// each node draws its class independently from the seeded stream (class
// fractions as cumulative probabilities, remainder at speed 1). Both
// engines call this with the run seed, so the simulator and the live
// prototype agree on which node is slow. Returns nil when the spec leaves
// the cluster homogeneous.
func (h *Heterogeneity) Factors(n int, seed int64) []float64 {
	if h == nil || n <= 0 || h.uniform() {
		return nil
	}
	src := randdist.New(seed)
	speeds := make([]float64, n)
	for id := range speeds {
		u := src.Float64()
		speeds[id] = 1
		acc := 0.0
		for _, c := range h.Classes {
			acc += c.Fraction
			if u < acc {
				speeds[id] = c.Speed
				break
			}
		}
	}
	return speeds
}
