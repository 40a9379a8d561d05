package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// One invocation measures subTraces traces in rotation, generated from
// consecutive sub-seeds of --seed. The google trace is heavy-tailed: at
// these lengths the time a seeded trace costs spreads 5-9 % of the median
// across seeds and its peak memory up to 20 %, and a metric taken on a
// single trace would carry that from seed to seed. Averaged over four
// traces it carries half. Distinct seeds share no sub-seed.
const subTraces = 4

func subSeed(seed int64, j int) int64 { return seed*subTraces + int64(j) }

// Set-up is repeated at least once per trace and for at least setupShare
// of the measuring budget (1.5 s of 20), so that a small trace's 40 ms
// set-up is timed as steadily as a large one's second.
const setupShare = 0.075

// inputs is what set-up leaves behind for one trace.
type inputs struct {
	seed   int64           // the sub-seed: generates the trace and is hawksim's -seed
	trace  *workload.Trace // kept for the first trace only (the in-process runs of --trace 1)
	meta   workload.Meta
	path   string // the trace file hawksim reads
	bytes  int64
	sha256 string
	gen    []float64 // seconds in workload.Generate, one per repetition on this trace
	enc    []float64 // seconds in workload.SaveSource
}

// setup is one invocation's set-up: the traces, and what making them cost.
type setup struct {
	traces   []*inputs
	seconds  []float64 // generate + save, one per repetition
	slowdown []float64 // the host's slowdown around each repetition
}

// setUp generates the workload's traces from the sub-seeds of seed and
// writes them to dir, trace after trace and round again (same sub-seed,
// same bytes) for at least minTime, timing each repetition between two
// reference passes.
func setUp(w *workloadDef, jobs int, seed int64, dir string, minTime time.Duration, ref *reference) (*setup, error) {
	su := &setup{traces: make([]*inputs, subTraces)}
	for j := range su.traces {
		su.traces[j] = &inputs{seed: subSeed(seed, j), path: filepath.Join(dir, fmt.Sprintf("%s-%d.trace", w.name, j))}
		if w.gzip {
			su.traces[j].path += ".gz"
		}
	}
	var saveErr error
	reps := 0
	start := time.Now()
	su.seconds, su.slowdown = ref.bracketed(func() (float64, bool) {
		in := su.traces[reps%subTraces]
		t0 := time.Now()
		trace := workload.Generate(workload.Google(), workload.GenConfig{
			NumJobs: jobs, MeanInterArrival: meanInterArrival, Seed: in.seed,
		})
		t1 := time.Now()
		saveErr = workload.SaveSource(in.path, workload.NewTraceSource(trace))
		t2 := time.Now()
		in.gen = append(in.gen, t1.Sub(t0).Seconds())
		in.enc = append(in.enc, t2.Sub(t1).Seconds())
		in.meta = trace.Meta()
		if in == su.traces[0] {
			in.trace = trace
		}
		reps++
		more := reps < subTraces || time.Since(start) < minTime
		// Collect the generator's garbage now, untimed, or the collector
		// would run beside the next reference pass and slow it.
		trace = nil
		runtime.GC()
		return t2.Sub(t0).Seconds(), saveErr == nil && more
	})
	if saveErr != nil {
		return nil, fmt.Errorf("writing a trace of %s: %w", w.name, saveErr)
	}
	for _, in := range su.traces {
		var err error
		if in.sha256, in.bytes, err = hashFile(in.path); err != nil {
			return nil, err
		}
	}
	return su, nil
}

func hashFile(path string) (sum string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// buildHawksim compiles cmd/hawksim of the checkout at root into dir and
// returns the binary's path and the build's wall seconds. The time depends
// on the state of the go build cache, which is why it is not in setup_s.
func buildHawksim(root, dir string) (bin string, seconds float64, err error) {
	bin, err = filepath.Abs(filepath.Join(dir, "hawksim"))
	if err != nil {
		return "", 0, err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hawksim")
	cmd.Dir = root
	t0 := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/hawksim in %s: %w\n%s", root, err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// childRun is one hawksim process, measured from outside.
type childRun struct {
	wallS float64
	cpuS  float64 // user + system, from the child's rusage
	rssMB float64 // max resident set, from the child's rusage
	err   error   // non-zero exit or a failed output check
}

// runner executes one workload's hawksim command on one trace repeatedly
// in a scratch directory and checks what each run leaves behind.
type runner struct {
	w   *workloadDef
	in  *inputs
	bin string
	dir string

	// first holds the output digests of the first good run; later runs
	// must reproduce them exactly.
	first   *outputDigest
	simStat simStats
}

type outputDigest struct{ json, csv string }

// simStats are the simulated-time statistics of the run, the paper's
// headline numbers, computed from the per-job CSV.
type simStats struct {
	shortP90 float64
	longP50  float64
}

// reportHead is the part of hawksim's report JSON the checks read.
type reportHead struct {
	Engine        string            `json:"engine"`
	Jobs          []json.RawMessage `json:"jobs"`
	TasksExecuted int64             `json:"tasksExecuted"`
	Events        uint64            `json:"events"`
	Streamed      *struct {
		ShortJobs int64 `json:"shortJobs"`
		LongJobs  int64 `json:"longJobs"`
	} `json:"streamed"`
}

func (r *runner) jsonPath() string { return filepath.Join(r.dir, "out.json") }
func (r *runner) csvPath() string  { return filepath.Join(r.dir, "out.csv") }

func (r *runner) command() []string {
	return append([]string{r.bin, "-trace", r.in.path, "-nodes", strconv.Itoa(clusterNodes),
		"-seed", strconv.FormatInt(r.in.seed, 10), "-dump", r.csvPath(), "-json", r.jsonPath()}, r.w.args...)
}

// run executes hawksim once through the launcher: wall clock around
// start-to-exit, CPU time and peak RSS from the child's rusage, then the
// output checks. corrupt, when set, is applied to the outputs before they
// are checked (the smoke test uses it to prove a bad output is counted).
func (r *runner) run(corrupt func(*runner)) childRun {
	os.Remove(r.jsonPath())
	os.Remove(r.csvPath())
	m, err := launch(r.command()...)
	res := childRun{wallS: m.WallS, cpuS: m.CPUS, rssMB: m.RSSMB, err: err}
	if err != nil {
		return res
	}
	if corrupt != nil {
		corrupt(r)
	}
	res.err = r.checkOutputs()
	return res
}

// checkOutputs verifies out.json and out.csv of the run that just ended.
func (r *runner) checkOutputs() error {
	if r.first != nil {
		// Determinism: every run of the workload writes the same bytes,
		// so the first run's full parse stands for all of them.
		return sameOutputs(r.first, r.csvPath(), r.jsonPath())
	}
	raw, err := os.ReadFile(r.jsonPath())
	if err != nil {
		return err
	}
	var head reportHead
	if err := json.Unmarshal(raw, &head); err != nil {
		return fmt.Errorf("out.json: %w", err)
	}
	meta := r.in.meta
	jobs := len(head.Jobs)
	if r.w.stream {
		if head.Streamed == nil {
			return fmt.Errorf("out.json: streamed run carries no streamed aggregates")
		}
		jobs = int(head.Streamed.ShortJobs + head.Streamed.LongJobs)
	}
	if jobs != meta.NumJobs {
		return fmt.Errorf("out.json reports %d jobs, trace has %d", jobs, meta.NumJobs)
	}
	if head.Engine != "sim" || head.Events == 0 {
		return fmt.Errorf("out.json: engine %q, %d events", head.Engine, head.Events)
	}
	if head.TasksExecuted < meta.TotalTasks || (r.w.exactTasks && head.TasksExecuted != meta.TotalTasks) {
		return fmt.Errorf("out.json reports %d tasks executed, trace has %d", head.TasksExecuted, meta.TotalTasks)
	}
	f, err := os.Open(r.csvPath())
	if err != nil {
		return err
	}
	rows, err := policy.ReadResultsCSV(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("out.csv: %w", err)
	}
	if len(rows) != meta.NumJobs {
		return fmt.Errorf("out.csv has %d job rows, trace has %d jobs", len(rows), meta.NumJobs)
	}
	var short, long []float64
	for _, j := range rows {
		if j.Long {
			long = append(long, j.Runtime)
		} else {
			short = append(short, j.Runtime)
		}
	}
	if len(short) == 0 || len(long) == 0 {
		return fmt.Errorf("out.csv has %d short and %d long jobs; both classes are needed", len(short), len(long))
	}
	r.simStat = simStats{shortP90: stats.Percentile(short, 90), longP50: stats.Percentile(long, 50)}
	r.first, err = digestOutputs(r.csvPath(), r.jsonPath())
	return err
}

func digestOutputs(csvPath, jsonPath string) (*outputDigest, error) {
	csvSum, _, err := hashFile(csvPath)
	if err != nil {
		return nil, err
	}
	jsonSum, _, err := hashFile(jsonPath)
	if err != nil {
		return nil, err
	}
	return &outputDigest{json: jsonSum, csv: csvSum}, nil
}

// sameOutputs checks that the two files hold exactly the bytes want was
// taken from.
func sameOutputs(want *outputDigest, csvPath, jsonPath string) error {
	got, err := digestOutputs(csvPath, jsonPath)
	if err != nil {
		return err
	}
	if got.csv != want.csv {
		return fmt.Errorf("%s differs from the first run's out.csv (sha256 %.12s vs %.12s)", filepath.Base(csvPath), got.csv, want.csv)
	}
	if got.json != want.json {
		return fmt.Errorf("%s differs from the first run's out.json (sha256 %.12s vs %.12s)", filepath.Base(jsonPath), got.json, want.json)
	}
	return nil
}

// startup runs `hawksim -list-policies`, the cheapest complete process,
// and returns its wall seconds. It doubles as the warm-up that pages the
// binary in before the first timed run.
func (r *runner) startup() (float64, error) {
	m, err := launch(r.bin, "-list-policies")
	return m.WallS, err
}

// runFor repeats the workload, one process at a time, on one trace after
// the other and round again, each run between two reference passes, until
// every trace has been run and the next run would end after the budget.
// It returns the runs (run i is on trace i mod len(rs)) and the host's
// slowdown around each.
func runFor(rs []*runner, ref *reference, budget time.Duration, corrupt func(*runner)) ([]childRun, []float64) {
	var runs []childRun
	start := time.Now()
	_, slowdown := ref.bracketed(func() (float64, bool) {
		res := rs[len(runs)%len(rs)].run(corrupt)
		runs = append(runs, res)
		next := time.Duration(res.wallS * float64(time.Second))
		return res.wallS, len(runs) < len(rs) || time.Since(start)+next <= budget
	})
	return runs, slowdown
}
