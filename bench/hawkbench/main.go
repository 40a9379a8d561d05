// Command hawkbench is the repository's benchmark: it measures hawksim
// from trace bytes on disk to report bytes out, one workload per
// invocation, and splits the time by layer.
//
//	hawkbench --workload google_stream --seed 1 --seconds 25 --trace 0
//
// generates the workload's traces from the seed, builds hawksim from the
// checkout in the current directory, runs it as a child process for
// --seconds, one process at a time and each between two passes of a
// reference kernel that measure the host, checks every run's outputs, and
// prints the end-to-end metrics. With --trace 1 it instead runs the
// workload in-process with a span around each call into a layer, times
// each layer's public functions in isolation at the workload's sizes, and
// prints the per-layer metrics. Every metric is printed by name with its unit; the
// last line of standard output is the result as one JSON object.
// bench/README.md describes workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// options are one invocation's inputs. root and corrupt are not flags:
// the command always measures the checkout it is started in, and only the
// smoke test damages outputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	jobs     int    // trace length override; 0 keeps the workload's own
	out      string // directory for results.json, trace_<workload>.json and scratch files
	root     string // the checkout: holds go.mod and cmd/hawksim
	corrupt  func(*runner)
}

func main() {
	if os.Getenv(launchEnv) != "" {
		launcherMain()
		return
	}
	var o options
	var trace int
	var aa bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "its sub-seeds seed trace generation and hawksim -seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.jobs, "jobs", 0, "override the workload's trace length (0 = as defined; for smoke tests)")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for results.json, trace_<workload>.json and scratch files")
	flag.BoolVar(&aa, "aa", false, "A/A check: run every workload on ten seeds, twice, and compare the two sets against BENCHMARK.json's bounds")
	flag.Parse()
	o.root = "."
	o.trace = trace != 0

	if aa {
		if err := runAA(o); err != nil {
			fmt.Fprintln(os.Stderr, "hawkbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hawkbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // quartiles and sample count of a median, for the human-readable line
	// samples are the runs behind a median; results.json keeps them so a
	// later comparison can recompute any statistic.
	samples []float64
}

type metricSet []metric

func (m *metricSet) add(name string, value float64, unit string) {
	*m = append(*m, metric{name: name, value: value, unit: unit})
}

// addMedian adds the median of samples, with the quartiles and the sample
// count alongside. A dozen samples support no percentile above the
// median, so none is reported.
func (m *metricSet) addMedian(name string, samples []float64, unit string) {
	q1, q3 := quartiles(samples)
	*m = append(*m, metric{name: name, value: median(samples), unit: unit, samples: samples,
		note: fmt.Sprintf("median of %d runs; quartiles %.4g..%.4g", len(samples), q1, q3)})
}

// addOverTraces adds the mean over the traces of stat (median or
// smallest) of each trace's runs; perTrace[j] holds trace j's samples. A
// trace none of whose runs succeeded (the result is already incorrect)
// is left out.
func (m *metricSet) addOverTraces(name string, perTrace [][]float64, unit, statName string, stat func([]float64) float64) {
	var sum float64
	var all, each []float64
	for _, samples := range perTrace {
		if len(samples) == 0 {
			continue
		}
		each = append(each, stat(samples))
		sum += stat(samples)
		all = append(all, samples...)
	}
	*m = append(*m, metric{name: name, value: sum / float64(len(each)), unit: unit, samples: all,
		note: fmt.Sprintf("mean over %d traces of the %s of each trace's runs, %d in all; per trace %.4g", len(each), statName, len(all), each)})
}

// result is what one invocation reports.
type result struct {
	workload  string
	seed      int64
	trace     bool
	jobs      int   // the size of each trace; tasks is their mean, so that
	tasks     int64 // tasks ÷ wall_ref_s is the work rate at this stated input size
	attempted int
	failed    int
	failures  []string // first few failure messages
	metrics   metricSet
	// raw holds the measurements behind the reference-speed metrics as
	// the host clock saw them; they are printed and kept in results.json
	// but are not metrics, because they are not steady.
	raw map[string][]float64
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// resultJSON is the driver-facing form: the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) json() resultJSON {
	out := resultJSON{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	return out
}

// print writes every metric by name and unit, then the failure count
// against the number attempted, then the JSON line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  jobs %d  tasks %d (mean per trace)\n", r.workload, r.seed, r.trace, r.jobs, r.tasks)
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-32s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "   (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range slices.Sorted(maps.Keys(r.raw)) {
		q1, q3 := quartiles(r.raw[name])
		fmt.Fprintf(w, "  raw %-26s %14.6g   (median of %d; quartiles %.4g..%.4g; not a metric)\n",
			name, median(r.raw[name]), len(r.raw[name]), q1, q3)
	}
	fmt.Fprintf(w, "%-32s %14.6g %s   (%d failed of %d attempted)\n", "failed_frac",
		float64(r.failed)/float64(r.attempted), "ratio", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	line, err := json.Marshal(r.json())
	if err != nil { // a NaN or Inf metric: a harness bug
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// run performs one invocation: set-up, build, then the end-to-end or the
// per-layer measurement, and leaves results.json (and the trace file) in
// o.out.
func run(o options) (*result, error) {
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	jobs := w.jobs
	if o.jobs > 0 {
		jobs = o.jobs
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	bin, buildS, err := buildHawksim(o.root, scratch)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	ref := newReference()
	su, err := setUp(w, jobs, o.seed, scratch, time.Duration(setupShare*float64(budget)), ref)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, seed: o.seed, trace: o.trace, jobs: jobs}
	rs := make([]*runner, len(su.traces))
	for j, in := range su.traces {
		rs[j] = &runner{w: w, in: in, bin: bin, dir: scratch}
		res.tasks += in.meta.TotalTasks / int64(len(su.traces))
	}
	var spans *recorder
	if o.trace {
		// The per-layer split is of one run: the first trace's.
		spans, err = measureLayers(res, rs[0], ref, budget, buildS)
	} else {
		err = measureEndToEnd(res, rs, su, ref, budget, o.corrupt)
	}
	if err != nil {
		return nil, err
	}
	if spans != nil {
		if err := spans.writeChromeTrace(filepath.Join(o.out, "trace_"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	if err := writeResults(filepath.Join(o.out, "results.json"), o, su, res); err != nil {
		return nil, err
	}
	return res, nil
}

// measureEndToEnd is the --trace 0 measurement: hawksim as a child
// process, repeated over the traces for the budget with tracing off. Both
// timings are reported in seconds at the reference speed (reference.go).
func measureEndToEnd(res *result, rs []*runner, su *setup, ref *reference, budget time.Duration, corrupt func(*runner)) error {
	if _, err := rs[0].startup(); err != nil {
		return err
	}
	wallRef, rss := make([][]float64, len(rs)), make([][]float64, len(rs))
	var wall, slow []float64
	runs, slowdown := runFor(rs, ref, budget, corrupt)
	for i, c := range runs {
		res.attempted++
		if c.err != nil {
			res.fail(c.err)
			continue
		}
		j := i % len(rs)
		wallRef[j] = append(wallRef[j], c.wallS/slowdown[i])
		rss[j] = append(rss[j], c.rssMB)
		wall = append(wall, c.wallS)
		slow = append(slow, slowdown[i])
	}
	if len(wall) == 0 {
		return fmt.Errorf("no hawksim run of %s succeeded: %s", rs[0].w.name, strings.Join(res.failures, "; "))
	}
	m := &res.metrics
	m.addOverTraces("wall_ref_s", wallRef, "s", "median", median)
	// Where the GC's heap goal falls when the report is serialized makes a
	// run's peak bimodal and only ever adds to it, so a trace's smallest
	// peak is steadier than its median.
	m.addOverTraces("peak_rss_mb", rss, "MB", "smallest", func(v []float64) float64 { return slices.Min(v) })
	m.addMedian("setup_s", refSeconds(su.seconds, su.slowdown), "s")
	res.raw = map[string][]float64{
		"wall_s": wall, "host_slowdown": slow,
		"setup_wall_s": su.seconds, "setup_host_slowdown": su.slowdown,
	}
	return nil
}

// fingerprint identifies the machine and the commit, so that two results
// can be seen to come from the same box.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	Commit     string `json:"commit"`
}

func machineFingerprint(root string) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout that is not a repository (the driver's) is "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD holds the hash
	}
	if hash, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// traceFile describes one input file in results.json.
type traceFile struct {
	Seed   int64  `json:"seed"`
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
	Jobs   int    `json:"jobs"`
	Tasks  int64  `json:"tasks"`
}

// writeResults records the invocation in results.json: what ran, on what
// machine, over which input bytes, and every metric.
func writeResults(path string, o options, su *setup, res *result) error {
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Trace    bool        `json:"trace"`
		Traces   []traceFile `json:"traces"`
		Machine  fingerprint `json:"machine"`
		Failures []string    `json:"failures,omitempty"`
		Result   resultJSON  `json:"result"`
		// Samples holds every run behind each metric reported as a median or
		// a smallest value, and the raw host-clock measurements.
		Samples map[string][]float64 `json:"samples,omitempty"`
	}{
		Workload: res.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Machine: machineFingerprint(o.root), Failures: res.failures, Result: res.json(),
		Samples: map[string][]float64{},
	}
	for _, in := range su.traces {
		doc.Traces = append(doc.Traces, traceFile{Seed: in.seed, File: filepath.Base(in.path),
			Bytes: in.bytes, SHA256: in.sha256, Jobs: in.meta.NumJobs, Tasks: in.meta.TotalTasks})
	}
	for _, m := range res.metrics {
		if m.samples != nil {
			doc.Samples[m.name] = m.samples
		}
	}
	for name, samples := range res.raw {
		doc.Samples["raw."+name] = samples
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the middle of values (mean of the middle two for an even
// count), NaN for none.
func median(values []float64) float64 { return stats.Percentile(values, 50) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// the definition the benchmark's acceptance check uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
