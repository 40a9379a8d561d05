package workload

import "fmt"

// Meta carries the trace-level facts a simulation must know before the
// first job is decoded: the scheduling defaults (long/short cutoff and
// reserved-partition fraction), the exact job count, and size bounds: a
// file's promise its reader enforces, and an event-heap hint. Sources know
// their Meta up front; nothing in it requires materializing the job list.
type Meta struct {
	// Name identifies the workload (e.g. "google").
	Name string
	// Cutoff is the default long/short cutoff (seconds of average task
	// duration), as on Trace.
	Cutoff float64
	// ShortPartitionFraction is the default fraction of nodes reserved for
	// short tasks, as on Trace.
	ShortPartitionFraction float64
	// NumJobs is the exact number of jobs the source will yield.
	NumJobs int
	// MaxTasks is the largest per-job task count the source will yield,
	// or 0 if unknown. It is the header's promise, which a file reader
	// enforces on every record; no engine sizes or admits anything by it
	// (the simulator holds each job to the feasibility rule as it pulls it).
	MaxTasks int
	// TotalTasks is the total task count across all jobs, or 0 if unknown.
	// Used to size the simulator's event heap.
	TotalTasks int64
}

// jobsHintCap bounds JobsHint; it is above the 40 000 jobs of the largest
// trace the benchmark retains, so that run's pre-size is exact.
const jobsHintCap = 1 << 16

// JobsHint is NumJobs capped for pre-sizing a per-job slice. A file's header
// is a promise the reader checks only as records arrive, so the count it
// states must not be allocated before they do: past the cap the slice grows
// on demand.
func (m Meta) JobsHint() int { return min(m.NumJobs, jobsHintCap) }

// Source is a pull iterator over a trace's jobs in submission order, and
// the one form in which the simulator takes a workload: it pulls the next
// job only when its submit event fires, so what a run holds of the workload
// is bounded by in-flight work rather than trace length. A Trace is the
// source that happens to be in memory (NewTraceSource).
//
// Contract: Next returns the next job and true, or nil and false after the
// last job. A source that can fail mid-stream (e.g. a file reader) should
// also implement Err() error, checked via SourceErr after Next returns
// false. A returned *Job and its Durations remain owned by the caller
// until handed back through Recycle (if the source implements Recycler);
// sources must never reuse or mutate a yielded job before then.
type Source interface {
	// Meta returns the trace metadata, known before any job is decoded.
	Meta() Meta
	// Next returns the next job in submission order, or (nil, false) when
	// the source is exhausted or failed.
	Next() (*Job, bool)
}

// Recycler is optionally implemented by sources that pool job objects.
// Recycle hands a job previously returned by Next back to the source for
// reuse; the caller must not touch the job or its Durations afterwards.
// Recycling is what makes streamed generation O(in-flight) in allocations
// as well as bytes: steady state reuses a small free list of jobs instead
// of producing per-job garbage.
type Recycler interface {
	Recycle(*Job)
}

// SourceErr returns the terminal error of src, if src reports one via an
// Err() error method (file readers do; in-memory sources do not). It
// returns nil for sources without an Err method. Callers should check it
// after Next returns false to distinguish exhaustion from mid-stream
// failure.
func SourceErr(src Source) error {
	if f, ok := src.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// Meta returns the trace's metadata in Source form. It scans the job list
// once.
func (t *Trace) Meta() Meta {
	m := Meta{
		Name:                   t.Name,
		Cutoff:                 t.Cutoff,
		ShortPartitionFraction: t.ShortPartitionFraction,
		NumJobs:                len(t.Jobs),
	}
	for _, j := range t.Jobs {
		n := len(j.Durations)
		if n > m.MaxTasks {
			m.MaxTasks = n
		}
		m.TotalTasks += int64(n)
	}
	return m
}

// TraceSource adapts an in-memory Trace to the Source interface. It yields
// the trace's jobs as they stand, which is submission order for a valid
// trace (Trace.Validate); jobs stay owned by the Trace, and a TraceSource
// does not recycle them.
type TraceSource struct {
	t    *Trace
	next int
	meta Meta
}

// NewTraceSource returns a Source view of t. The trace is not copied or
// mutated; yielding is O(1) per job.
func NewTraceSource(t *Trace) *TraceSource {
	return &TraceSource{t: t, meta: t.Meta()}
}

// Meta returns the trace metadata.
func (s *TraceSource) Meta() Meta { return s.meta }

// Next yields the trace's next job.
func (s *TraceSource) Next() (*Job, bool) {
	if s.next >= len(s.t.Jobs) {
		return nil, false
	}
	s.next++
	return s.t.Jobs[s.next-1], true
}

// Materialize drains src into an in-memory Trace, validating the result.
// It is the bridge back from streaming to the eager call sites (workload
// statistics, trace transforms); by definition it costs O(trace) memory.
func Materialize(src Source) (*Trace, error) {
	m := src.Meta()
	t := &Trace{
		Name:                   m.Name,
		Cutoff:                 m.Cutoff,
		ShortPartitionFraction: m.ShortPartitionFraction,
		Jobs:                   make([]*Job, 0, m.JobsHint()),
	}
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		t.Jobs = append(t.Jobs, j)
	}
	if err := SourceErr(src); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

var _ Source = (*TraceSource)(nil)

// JobOrder holds a stream of jobs to the order of a hawk-trace file, the
// order every workload keeps: submit times never decrease, and job ids
// strictly ascend, which makes them unique without a set. It checks in O(1)
// and without buffering. The trace reader, the trace writer, Trace.Validate
// and the simulator's pull loop each run their jobs through one, so every
// form of a workload gets the same verdict and the same message. The zero
// value is ready: it expects the first job of a stream.
type JobOrder struct {
	id     int
	submit float64
	seen   bool
}

// Check holds j, the next job of trace name, to the order, and on success
// records it as the previous job.
func (o *JobOrder) Check(name string, j *Job) error {
	if o.seen {
		if j.SubmitTime < o.submit {
			return fmt.Errorf("workload: trace %q: job %d submit time %g out of order (previous %g)", name, j.ID, j.SubmitTime, o.submit)
		}
		if j.ID <= o.id {
			return fmt.Errorf("workload: trace %q: job id %d after job id %d (ids must ascend)", name, j.ID, o.id)
		}
	}
	*o = JobOrder{id: j.ID, submit: j.SubmitTime, seen: true}
	return nil
}
