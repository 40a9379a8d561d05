package workload

import "repro/internal/randdist"

// GeneratorSource streams the exact trace Generate materializes, one job
// at a time, in O(in-flight) memory. Construction runs a metadata prescan
// (pass one): it replays the generator's RNG draw-for-draw via skipJob —
// without building any job — to learn MaxTasks and TotalTasks, and to
// position the arrival-process fork at the same point Generate forks it.
// Next then re-runs the draws (pass two) from a fresh source with the same
// seed, producing each job on demand.
//
// Generate and pass two both build jobs in id order and assign Poisson
// arrivals cumulatively in that order (they never fall), so a
// GeneratorSource is byte-for-byte equivalent to Generate: same jobs, same
// order, same submit times. The equivalence suite pins this.
//
// GeneratorSource implements Recycler: jobs handed back through Recycle
// are reused by later Next calls, Durations backing arrays included, so a
// simulation that recycles promptly runs the whole trace on a handful of
// job objects.
type GeneratorSource struct {
	spec     Spec
	cfg      GenConfig
	meta     Meta
	forkSeed int64

	src  *randdist.Source // pass-two draw stream
	arr  *randdist.ArrivalProcess
	next int
	free []*Job
}

// NewGeneratorSource builds the streaming counterpart of
// Generate(spec, cfg). The constructor costs one full pass of RNG draws
// (O(total tasks) time, O(1) memory); each Next costs the draws of one
// job.
func NewGeneratorSource(spec Spec, cfg GenConfig) *GeneratorSource {
	g := &GeneratorSource{spec: spec, cfg: cfg}
	src := randdist.New(cfg.Seed)
	m := Meta{
		Name:                   spec.Name,
		Cutoff:                 spec.Cutoff,
		ShortPartitionFraction: spec.ShortPartitionFraction,
		NumJobs:                cfg.NumJobs,
	}
	for i := 0; i < cfg.NumJobs; i++ {
		cs := pickCluster(spec.Clusters, src.Float64())
		n := skipJob(cs, src)
		if n > m.MaxTasks {
			m.MaxTasks = n
		}
		m.TotalTasks += int64(n)
	}
	// Generate forks the arrival source after all job draws; capturing the
	// fork seed here reproduces that stream exactly.
	g.forkSeed = src.Int63()
	g.meta = m
	g.Reset()
	return g
}

// Meta returns the trace metadata computed by the prescan.
func (g *GeneratorSource) Meta() Meta { return g.meta }

// Next generates and returns the next job, or (nil, false) after NumJobs.
func (g *GeneratorSource) Next() (*Job, bool) {
	if g.next >= g.cfg.NumJobs {
		return nil, false
	}
	var j *Job
	if n := len(g.free); n > 0 {
		j = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		j = &Job{}
	}
	cs := pickCluster(g.spec.Clusters, g.src.Float64())
	genJobInto(j, g.next, cs, g.src)
	j.SubmitTime = g.arr.Next()
	g.next++
	return j, true
}

// Recycle returns a job previously yielded by Next to the free list for
// reuse. The caller must not touch j or its Durations afterwards.
func (g *GeneratorSource) Recycle(j *Job) {
	if j == nil {
		return
	}
	g.free = append(g.free, j)
}

// Reset rewinds the source to the first job without re-running the
// prescan; the free list survives. Benchmarks stream the same trace many
// times through one source this way.
func (g *GeneratorSource) Reset() {
	g.src = randdist.New(g.cfg.Seed)
	g.arr = randdist.NewArrivalProcess(randdist.New(g.forkSeed), g.cfg.MeanInterArrival)
	g.next = 0
}

var (
	_ Source   = (*GeneratorSource)(nil)
	_ Recycler = (*GeneratorSource)(nil)
)
