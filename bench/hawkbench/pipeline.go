package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Span names, one per call into a layer from the harness. The harness
// sits where hawksim's main does, so these are the layer boundaries a
// hawksim run crosses.
const (
	spanRun      = "hawksim.run"
	spanOpen     = "workload.OpenSource"
	spanSim      = "sim.RunSource"
	spanNext     = "workload.Next"
	spanSink     = "policy.JobSink"
	spanSinkOpen = "policy.CreateJobCSVSink"
	spanSaveCSV  = "policy.SaveResultsCSV"
	spanSaveJSON = "policy.SaveReportJSON"
)

// span is one timed call: start and end are offsets from the recorder's
// origin, parent is the id (index) of the span that made the call, -1 for
// the root.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
}

// recorder keeps the spans of one traced run in memory; they are written
// out after the benchmark has finished measuring.
type recorder struct {
	origin time.Time
	run    string // identifier every span of the run shares
	spans  []span
}

// newRecorder sizes the span slice up front so recording never reallocates
// inside the run it observes.
func newRecorder(run string, capacity int) *recorder {
	return &recorder{origin: time.Now(), run: run, spans: make([]span, 0, capacity)}
}

// begin and end are no-ops on a nil recorder, so the untraced run makes
// the same calls with nothing recorded.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r != nil {
		r.spans[id].end = time.Since(r.origin)
	}
}

// total sums the durations of the spans with the given name.
func (r *recorder) total(name string) (sum time.Duration, count int) {
	for i := range r.spans {
		if s := &r.spans[i]; s.name == name {
			sum += s.end - s.start
			count++
		}
	}
	return sum, count
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (complete "X" events, microseconds), which chrome://tracing and
// ui.perfetto.dev open directly. id, parent and run ride in args.
func (r *recorder) writeChromeTrace(path string) error {
	type args struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Run    string `json:"run"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args{ID: int32(i), Parent: s.parent, Run: r.run},
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedSource records a span per Next call on the wrapped FileSource. It
// forwards Recycle and Err, which the simulator discovers by type
// assertion: dropping either would change the run's allocation behaviour
// or hide a decode error, and the traced run would no longer be the run
// hawksim makes.
type timedSource struct {
	src    *workload.FileSource
	rec    *recorder
	parent int32
}

func (t *timedSource) Meta() workload.Meta { return t.src.Meta() }

func (t *timedSource) Next() (*workload.Job, bool) {
	id := t.rec.begin(spanNext, t.parent)
	j, ok := t.src.Next()
	t.rec.end(id)
	return j, ok
}

func (t *timedSource) Recycle(j *workload.Job) { t.src.Recycle(j) }

func (t *timedSource) Err() error { return t.src.Err() }

// runPipeline is hawksim's run, made in-process: open the trace file,
// simulate it under the workload's config, and write out.csv and out.json
// the way hawksim does for that workload. With rec set, each call into a
// layer is recorded as a span; with rec nil nothing is wrapped and the
// calls are hawksim's own.
func runPipeline(w *workloadDef, tracePath string, seed int64, csvPath, jsonPath string, rec *recorder) (*policy.Report, error) {
	root := rec.begin(spanRun, -1)
	defer rec.end(root)

	id := rec.begin(spanOpen, root)
	file, err := workload.OpenSource(tracePath)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	defer file.Close()

	cfg := w.config(seed)
	var sink *policy.JobCSVSink
	if w.stream {
		id = rec.begin(spanSinkOpen, root)
		sink, err = policy.CreateJobCSVSink(csvPath)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		defer sink.Close() // error paths; the success path checks Close below
		cfg.JobSink = sink.Sink
	}
	var src workload.Source = file
	simID := rec.begin(spanSim, root)
	if rec != nil {
		src = &timedSource{src: file, rec: rec, parent: simID}
		if sink != nil {
			cfg.JobSink = func(j policy.JobReport) error {
				id := rec.begin(spanSink, simID)
				err := sink.Sink(j)
				rec.end(id)
				return err
			}
		}
	}
	rep, err := sim.RunSource(src, cfg)
	rec.end(simID)
	if err != nil {
		return nil, err
	}

	id = rec.begin(spanSaveCSV, root)
	if sink != nil {
		err = sink.Close()
	} else {
		err = policy.SaveResultsCSV(csvPath, rep)
	}
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", csvPath, err)
	}
	id = rec.begin(spanSaveJSON, root)
	err = policy.SaveReportJSON(jsonPath, rep)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", jsonPath, err)
	}
	return rep, nil
}
