package policy

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/workload"
)

// Config parameterizes one scheduling run and is consumed by every engine.
// Zero values select the paper's defaults where meaningful (see field
// comments); Normalize resolves them against a trace exactly once, so the
// values recorded in a Report are the values the run actually used.
type Config struct {
	// Policy is the name of the scheduling policy (see Policies).
	// Empty selects "hawk".
	Policy string `json:"policy"`
	// NumNodes is the number of single-slot nodes, each with its own FIFO
	// queue; required (> 0). There is no slots-per-node knob: the paper
	// notes that one-slot nodes are "analogous to having multi-slot nodes
	// with each slot served by a different queue" (§4.1), so a cluster of
	// n nodes with k slots each is NumNodes n·k.
	NumNodes int `json:"numNodes"`
	// Schedulers, when set, turns on the distributed multi-scheduler model
	// in both engines (§4.10): Count concurrent schedulers, each placing
	// against its own stale snapshot of the central queue with optimistic
	// claim/commit and bounded conflict retries, with jobs hash-partitioned
	// across the live schedulers. Nil (the default) is the legacy exact
	// single-scheduler model; Normalize also canonicalizes a spec that is
	// behaviorally equivalent to it (Count 1, no scheduler churn) back to
	// nil, so reports and goldens stay byte-identical in that case.
	Schedulers *SchedulerSpec `json:"schedulers,omitempty"`
	// Cutoff is the long/short classification threshold in seconds of
	// estimated task runtime. Zero means "use the trace default".
	Cutoff float64 `json:"cutoff"`
	// ShortPartitionFraction is the fraction of nodes reserved for short
	// tasks. Zero or negative means "use the trace default". Policies
	// without a reserved partition ignore it.
	ShortPartitionFraction float64 `json:"shortPartitionFraction"`
	// ProbeRatio is the batch-sampling probes-per-task ratio (0 means the
	// default, 2).
	ProbeRatio int `json:"probeRatio"`
	// StealCap bounds the random nodes contacted per steal attempt (0 means
	// the default, 10). Only stealing policies use it.
	StealCap int `json:"stealCap"`
	// DisableStealing turns off work stealing (Figure 7 ablation).
	DisableStealing bool `json:"disableStealing,omitempty"`
	// StealRandomPositions replaces Figure 3's consecutive-group rule
	// with stealing the same number of short entries from random queue
	// positions — the alternative the paper argues against in §3.6.
	// Ablation only; off by default. Simulator only: the live engine
	// rejects it rather than silently stealing groups.
	StealRandomPositions bool `json:"stealRandomPositions,omitempty"`
	// DisablePartition makes the general partition span the whole
	// cluster (Figure 7 ablation).
	DisablePartition bool `json:"disablePartition,omitempty"`
	// DisableCentral schedules long jobs with distributed probing over
	// the general partition instead of centrally (Figure 7 ablation).
	DisableCentral bool `json:"disableCentral,omitempty"`
	// NetworkDelay is the one-way message delay in seconds (default
	// 0.5 ms, §4.1). The simulator models it; the live engine injects it
	// as real sleep.
	NetworkDelay float64 `json:"networkDelay"`
	// MisestimateLo/Hi define the uniform mis-estimation factor range of
	// §4.8. Both zero (or both one) means exact estimates. Simulator
	// only: the live prototype estimates exactly (§3.3) and rejects a
	// config requesting otherwise.
	MisestimateLo float64 `json:"misestimateLo,omitempty"`
	MisestimateHi float64 `json:"misestimateHi,omitempty"`
	// Churn scripts dynamic cluster membership: node failures and
	// recoveries plus central-scheduler outages, applied by both engines.
	// Nil (the default) is a static cluster — engines keep their fast
	// paths and byte-identical output.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Heterogeneity assigns per-node speed factors (task durations scale
	// by 1/speed at the executing node). Nil is a homogeneous cluster.
	// Node-to-class assignment draws from the Seed+SeedSpeeds stream.
	Heterogeneity *Heterogeneity `json:"heterogeneity,omitempty"`
	// Faults turns on the gray-failure injection plane: seeded per-class
	// message loss, delay jitter, scripted mid-run stragglers, and the
	// timeout/retry/speculation defenses (see FaultSpec). Nil (the
	// default) is a reliable network — engines keep their fast paths and
	// byte-identical output. All fault randomness draws from a dedicated
	// stream (Seed+SeedFaults), composable with Churn, Heterogeneity, and
	// Schedulers.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Seed drives all randomness (probe placement, steal victims,
	// mis-estimation draws). Equal seeds give identical simulator runs.
	Seed int64 `json:"seed"`
	// DiscardJobReports drops the per-job Report.Jobs slice: per-class job
	// counts and runtime percentiles are instead aggregated into bounded
	// reservoirs (Report.Streamed), so report memory stays O(1) however
	// long the workload, where a retaining run's is O(jobs). Meant for
	// streamed full-scale runs; combine with JobSink to still persist every
	// job. Simulator only.
	DiscardJobReports bool `json:"discardJobReports,omitempty"`
	// JobSink, when set, receives every completed job's JobReport in
	// completion order as the run executes. A non-nil error aborts the run
	// after the current drain. Composable with DiscardJobReports for
	// O(1)-memory runs that stream per-job results to disk. Not part of
	// the serialized config. Simulator only.
	JobSink func(JobReport) error `json:"-"`
}

// Per-stream seed offsets. An engine's main stream (probe placement, steal
// victims) is seeded with Config.Seed itself; every other source of
// randomness gets its own stream at Seed plus one of these, so turning a
// scenario plane on never shifts the draws of another, and both engines
// agree on, e.g., which nodes are slow.
const (
	SeedEstimator  = 1 // mis-estimation factor draws
	SeedSpeeds     = 2 // Heterogeneity node-to-class assignment
	SeedChurn      = 3 // random churn picks
	SeedReservoirs = 4 // streamed-report reservoir sampling
	SeedFaults     = 5 // the fault plane: loss, jitter, duplicate hosts, stragglers
)

// Normalize validates the configuration and resolves defaults against the
// trace. It is idempotent; engines call it once on entry so defaults are
// resolved exactly once per run and the returned Config is what the run
// actually used.
func (c Config) Normalize(t *workload.Trace) (Config, error) {
	return c.NormalizeMeta(workload.Meta{
		Cutoff:                 t.Cutoff,
		ShortPartitionFraction: t.ShortPartitionFraction,
	})
}

// NormalizeMeta is Normalize against a workload's up-front metadata instead
// of a materialized trace — the form streamed runs use, since only the
// trace-default Cutoff and ShortPartitionFraction are consulted.
func (c Config) NormalizeMeta(m workload.Meta) (Config, error) {
	if c.Policy == "" {
		c.Policy = "hawk"
	}
	if !slices.Contains(Policies(), c.Policy) {
		return c, unknownPolicy(c.Policy)
	}
	if c.NumNodes <= 0 {
		return c, fmt.Errorf("config: NumNodes must be positive, got %d", c.NumNodes)
	}
	if c.Cutoff == 0 {
		c.Cutoff = m.Cutoff
	}
	// Range checks on floats are written negated — !(x > 0), not x <= 0 — so
	// that a NaN, which compares false with everything, fails them.
	if !(c.Cutoff > 0) || math.IsInf(c.Cutoff, 1) {
		return c, fmt.Errorf("config: cutoff must be finite and positive, got %g", c.Cutoff)
	}
	if c.ShortPartitionFraction <= 0 {
		c.ShortPartitionFraction = m.ShortPartitionFraction
	}
	if !(c.ShortPartitionFraction <= 1) {
		return c, fmt.Errorf("config: ShortPartitionFraction must be at most 1, got %g", c.ShortPartitionFraction)
	}
	if c.ProbeRatio < 0 {
		return c, fmt.Errorf("config: ProbeRatio must be non-negative (0 = default), got %d", c.ProbeRatio)
	}
	if c.ProbeRatio == 0 {
		c.ProbeRatio = core.DefaultProbeRatio
	}
	if c.StealCap < 0 {
		return c, fmt.Errorf("config: StealCap must be non-negative (0 = default), got %d", c.StealCap)
	}
	if c.StealCap == 0 {
		c.StealCap = core.DefaultStealCap
	}
	if !finiteNonNegative(c.NetworkDelay) {
		return c, fmt.Errorf("config: NetworkDelay must be finite and non-negative, got %g", c.NetworkDelay)
	}
	if c.NetworkDelay == 0 {
		c.NetworkDelay = core.DefaultNetworkDelay
	}
	if !(c.MisestimateLo >= 0) || !(c.MisestimateHi >= c.MisestimateLo) || math.IsInf(c.MisestimateHi, 1) {
		return c, fmt.Errorf("config: mis-estimation range [%g, %g] invalid: need 0 <= lo <= hi, both finite",
			c.MisestimateLo, c.MisestimateHi)
	}
	if c.Schedulers != nil {
		// Copy before resolving so a spec shared across sweep configs is
		// never mutated through the pointer.
		spec, err := c.Schedulers.normalize()
		if err != nil {
			return c, err
		}
		if spec.Count == 1 && !c.Churn.HasSchedulerEvents() {
			// One scheduler with nothing to fail is exactly the legacy
			// model: drop the spec so the run (and its serialized config)
			// is bit-identical to a run that never set it.
			c.Schedulers = nil
		} else {
			c.Schedulers = &spec
		}
	} else if c.Churn.HasSchedulerEvents() {
		return c, fmt.Errorf("config: scheduler churn events require Config.Schedulers")
	}
	if c.Churn != nil {
		schedulers := 0
		if c.Schedulers != nil {
			schedulers = c.Schedulers.Count
		}
		if err := c.Churn.validate(c.NumNodes, schedulers); err != nil {
			return c, err
		}
	}
	if c.Heterogeneity != nil {
		if err := c.Heterogeneity.validate(); err != nil {
			return c, err
		}
	}
	if c.Faults != nil {
		// Copy before resolving, like Schedulers, so a spec shared across
		// sweep configs is never mutated through the pointer.
		spec, err := c.Faults.normalize(c.NumNodes)
		if err != nil {
			return c, err
		}
		if spec.injectsNothing() {
			// A spec that injects no faults is exactly the reliable
			// network: drop it so the run (and its serialized config) is
			// bit-identical to a run that never set it.
			c.Faults = nil
		} else {
			c.Faults = &spec
		}
	}
	return c, nil
}

// Backoff returns the timeout in seconds before retry attempt k (1-based):
// four network delays, doubling per attempt. It times both engines' fault
// retries of a dropped message (see FaultSpec) and, as Backoff(1), every
// multi-scheduler conflict retry (see SchedulerSpec).
func (c Config) Backoff(attempt int) float64 {
	return 4 * c.NetworkDelay * float64(int64(1)<<(attempt-1))
}

// finiteNonNegative reports whether x is a number in [0, MaxFloat64]: NaN
// and +Inf fail it, the rule for every time and delay a Config holds.
func finiteNonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// ExactEstimates reports whether the mis-estimation range leaves estimates
// exact (see core.Estimator): both bounds zero or both one.
func (c Config) ExactEstimates() bool {
	return (c.MisestimateLo == 0 && c.MisestimateHi == 0) ||
		(c.MisestimateLo == 1 && c.MisestimateHi == 1)
}
