// Package core implements the Hawk scheduler's policy components (Delgado
// et al., USENIX ATC '15) as engine-independent building blocks:
//
//   - runtime estimation and long/short classification (§3.3),
//   - cluster partitioning into a short partition and a general partition (§3.4),
//   - Sparrow-style batch-sampling probe placement for short jobs (§3.5),
//   - randomized work stealing with Figure 3's eligible-group rule (§3.6),
//   - the centralized waiting-time priority queue for long jobs (§3.7).
//
// Both the trace-driven simulator (internal/sim) and the live goroutine
// prototype (internal/liverun) are built from these pieces, so the policies
// under test are byte-for-byte identical across the two engines — mirroring
// how the paper reuses the same design in its simulator and Spark plug-in.
//
// Every decision here must be a pure function of its inputs and an explicit
// seeded randdist.Source; hawklint's determinism analyzer enforces it:
//
//hawk:deterministic
//hawk:exporteddoc
package core

import (
	"fmt"
	"math"

	"repro/internal/randdist"
	"repro/internal/workload"
)

// DefaultProbeRatio is the number of probes per task for batch sampling.
// The Sparrow authors found two to be the best probe ratio (§4.1).
const DefaultProbeRatio = 2

// DefaultStealCap is the default number of random nodes an idle server
// contacts when attempting to steal (§4.1).
const DefaultStealCap = 10

// DefaultNetworkDelay is the modelled one-way network delay (§4.1).
const DefaultNetworkDelay = 0.0005 // 0.5 ms in seconds

// Estimator produces per-job estimated task runtimes. Hawk estimates a
// job's task runtime as the average of the job's task durations (§3.3); the
// mis-estimation experiments (§4.8) multiply the correct estimate by a
// factor drawn uniformly from [MisLo, MisHi].
type Estimator struct {
	// MisLo and MisHi bound the uniform mis-estimation factor. A zero
	// Estimator (both zero) means exact estimates, as does MisLo = MisHi = 1.
	MisLo, MisHi float64
	src          *randdist.Source
}

// NewEstimator returns an estimator with the given mis-estimation range.
// Pass lo = hi = 1 (or 0, 0) for exact estimates. The seed controls the
// per-job factor draws.
func NewEstimator(lo, hi float64, seed int64) *Estimator {
	return &Estimator{MisLo: lo, MisHi: hi, src: randdist.New(seed)}
}

// Estimate returns the (possibly perturbed) estimated task runtime for j.
// Each call draws a fresh factor, so call it once per job and cache the
// result — the scheduler must use one consistent estimate per job.
func (e *Estimator) Estimate(j *workload.Job) float64 {
	actual := j.AvgTaskDuration()
	if e == nil || (e.MisLo == 0 && e.MisHi == 0) || (e.MisLo == 1 && e.MisHi == 1) {
		return actual
	}
	return actual * e.src.Uniform(e.MisLo, e.MisHi)
}

// Classifier separates long from short jobs by comparing the estimated task
// runtime against a cutoff (§3.3).
type Classifier struct {
	// Cutoff in seconds; jobs with estimate >= Cutoff are long.
	Cutoff float64
}

// IsLong reports whether a job with the given estimated task runtime is
// scheduled as a long job.
func (c Classifier) IsLong(estimate float64) bool { return estimate >= c.Cutoff }

// Partition describes Hawk's cluster split (§3.4). Nodes are identified by
// dense ids [0, NumNodes); ids below shortOnly form the short partition
// (reserved for short tasks), the rest form the general partition.
type Partition struct {
	numNodes  int
	shortOnly int
}

// NewPartition reserves ceil(shortFraction * numNodes) nodes for short
// tasks, leaving at least one general node whenever numNodes > 0. The
// fraction is clamped to [0, 1].
func NewPartition(numNodes int, shortFraction float64) Partition {
	if numNodes < 0 {
		numNodes = 0
	}
	if shortFraction < 0 {
		shortFraction = 0
	}
	if shortFraction > 1 {
		shortFraction = 1
	}
	// Rounded before p-r below, which could otherwise fuse it (see the
	// randdist package comment).
	p := float64(shortFraction * float64(numNodes))
	short := int(math.Ceil(p))
	// Guard the ceiling against upward float noise: 0.07*100 is
	// 7.0000000000000009 in float64, and the true ceiling of the intended
	// product is 7, not 8. The tolerance is relative so the guard still
	// holds at huge products (0.07*3e8 is off by ~4e-9 absolute).
	if r := math.Round(p); p > r && p-r < 1e-9*math.Max(1, r) {
		short = int(r)
	}
	// Any positive fraction reserves at least one node, per the ceiling
	// contract — even when the guard clamped a near-zero product.
	if short == 0 && p > 0 {
		short = 1
	}
	if short >= numNodes && numNodes > 0 {
		short = numNodes - 1
	}
	return Partition{numNodes: numNodes, shortOnly: short}
}

// NumNodes returns the total cluster size.
func (p Partition) NumNodes() int { return p.numNodes }

// ShortOnlyNodes returns the size of the short partition.
func (p Partition) ShortOnlyNodes() int { return p.shortOnly }

// GeneralNodes returns the size of the general partition.
func (p Partition) GeneralNodes() int { return p.numNodes - p.shortOnly }

// IsGeneral reports whether node id belongs to the general partition (and
// may therefore run long tasks and be a steal victim).
func (p Partition) IsGeneral(id int) bool { return id >= p.shortOnly }

// GeneralID returns the node id of the i-th general-partition node.
func (p Partition) GeneralID(i int) int { return p.shortOnly + i }

// SampleGeneralInto appends k distinct random general-partition node ids to
// dst and returns the extended slice (pass nil to allocate). Zero heap
// allocations in steady state when dst has capacity; the
// simulator threads a per-run scratch buffer through here on every probe
// placement and steal attempt.
//
//hawk:hotpath
func (p Partition) SampleGeneralInto(dst []int, src *randdist.Source, k int) []int {
	n := p.GeneralNodes()
	if k > n {
		k = n
	}
	start := len(dst)
	dst = src.SampleWithoutReplacementInto(dst, n, k)
	for i := start; i < len(dst); i++ {
		dst[i] += p.shortOnly
	}
	return dst
}

// SampleAllInto appends k distinct random node ids from the whole cluster
// (short jobs may be probed anywhere, §3.4); see SampleGeneralInto.
//
//hawk:hotpath
func (p Partition) SampleAllInto(dst []int, src *randdist.Source, k int) []int {
	if k > p.numNodes {
		k = p.numNodes
	}
	return src.SampleWithoutReplacementInto(dst, p.numNodes, k)
}

// SampleShortInto appends k distinct random short-partition node ids, used
// by policies that confine short jobs to the reserved partition (the §4.6
// split-cluster baseline); see SampleGeneralInto.
//
//hawk:hotpath
func (p Partition) SampleShortInto(dst []int, src *randdist.Source, k int) []int {
	if k > p.shortOnly {
		k = p.shortOnly
	}
	return src.SampleWithoutReplacementInto(dst, p.shortOnly, k)
}

// String renders a one-line debug summary of the partition split.
func (p Partition) String() string {
	return fmt.Sprintf("partition{nodes=%d shortOnly=%d general=%d}", p.numNodes, p.shortOnly, p.GeneralNodes())
}

// NumProbes returns the batch-sampling probe count for a job with tasks
// tasks: ratio*tasks, capped at the number of candidate nodes (§3.5).
//
//hawk:hotpath
func NumProbes(tasks, ratio, candidateNodes int) int {
	n := tasks * ratio
	if n > candidateNodes {
		n = candidateNodes
	}
	if n < 1 && candidateNodes > 0 {
		n = 1
	}
	return n
}
