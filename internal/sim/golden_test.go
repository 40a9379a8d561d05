package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eventq"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The golden-report pin: the typed-event engine rewrite (and any future
// hot-path work) must leave simulator output byte-identical to the engine
// that generated the files under testdata/golden. The serialized form
// includes everything a run produces — per-job reports, every counter, the
// event count, utilization samples, and the per-entry queueing waits — so
// any behavioral drift, however small, fails the diff. Run is RunSource over
// the trace's own source, so the goldens pin the one engine path there is —
// job-slot recycling included — and each is replayed from a hawk-trace file
// of the same jobs as well, whose source pools and reuses its Jobs.
//
// Regenerate (only when output is *meant* to change, with justification):
//
//	SIM_UPDATE_GOLDEN=1 go test ./internal/sim -run TestReportsMatchGolden

// pinnedReport is the full serialized state of one run, including the
// fields Report deliberately excludes from its public JSON form.
type pinnedReport struct {
	Report             *policy.Report `json:"report"`
	UtilizationSamples []float64      `json:"utilizationSamples"`
	ShortEntryWaits    []float64      `json:"shortEntryWaits"`
	LongEntryWaits     []float64      `json:"longEntryWaits"`
}

// goldenCases enumerates the pinned (trace, config) points: all four
// policies at a steal-heavy operating point, plus the mis-estimation,
// random-position-stealing, churn, multi-scheduler and fault code paths.
func goldenCases() (*workload.Trace, map[string]policy.Config) {
	base := policy.Config{NumNodes: 1200, Seed: 9}
	cases := map[string]policy.Config{}
	for _, pol := range []string{"sparrow", "hawk", "centralized", "split"} {
		cfg := base
		cfg.Policy = pol
		cases[pol] = cfg
	}
	mis := base
	mis.Policy = "hawk"
	mis.MisestimateLo, mis.MisestimateHi = 0.5, 1.8
	cases["hawk-misestimate"] = mis

	randSteal := base
	randSteal.Policy = "hawk"
	randSteal.StealRandomPositions = true
	cases["hawk-randsteal"] = randSteal

	// Dynamic-cluster scenarios: rolling node churn (membership-aware
	// sampling, task re-execution, probe re-sends) and a mid-trace
	// central-scheduler outage (backlog, outage marks). These pin the
	// churn paths the static cases never enter.
	churn := base
	churn.Policy = "hawk"
	churn.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 30, Kind: policy.ChurnFail, Count: 60},
		{At: 60, Kind: policy.ChurnFail, Node: 2},
		{At: 90, Kind: policy.ChurnRecover, Count: 40},
		{At: 130, Kind: policy.ChurnRecover, Count: 30},
	}}
	cases["hawk-churn"] = churn

	outage := base
	outage.Policy = "hawk"
	outage.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 40, Kind: policy.ChurnCentralDown},
		{At: 160, Kind: policy.ChurnCentralUp},
	}}
	cases["hawk-central-outage"] = outage

	// Multi-scheduler model: two concurrent schedulers placing against
	// stale snapshots with claim/commit conflict resolution. Pins the
	// optimistic-concurrency paths (snapshot refresh, conflict retry,
	// staleness accounting) that every single-scheduler case bypasses.
	sched2 := base
	sched2.Policy = "hawk"
	sched2.Schedulers = &policy.SchedulerSpec{Count: 2}
	cases["hawk-sched2"] = sched2

	// Ten mutually stale mirrors at twice the default refresh interval: each
	// mirror hears its own tasks start and finish through six or more of
	// its 10–12 refresh intervals without being asked for a placement, so
	// expired servers sit in its running heap unobserved until the next
	// SyncFrom overwrites them — the regime where CentralQueue's
	// settle-on-observation and an eager migration differ internally and
	// must not differ in the report (112 refreshes, 1533 conflicts, 1523
	// retries pinned).
	sched10 := base
	sched10.Policy = "hawk"
	sched10.Schedulers = &policy.SchedulerSpec{Count: 10, SnapshotInterval: 10}
	cases["hawk-sched10-stale"] = sched10

	// Gray-failure scenarios: a lossy/jittery message plane (drop
	// decisions, retry backoff chains, fault-stream draws) and straggler-
	// triggered speculative re-execution (threshold arming, duplicate
	// launches, first-completion-wins). These pin the fault-plane event
	// paths and the Seed+5 stream's draw order.
	msgloss := base
	msgloss.Policy = "hawk"
	msgloss.Faults = &policy.FaultSpec{
		ProbeLoss: 0.05, ReplyLoss: 0.03, StealLoss: 0.1,
		AssignLoss: 0.03, CommitLoss: 0.03, Jitter: 0.002, MaxRetries: 8,
	}
	cases["hawk-msgloss"] = msgloss

	// The same loss mix on a constant message delay, the one regime where a
	// lossy run's one-hop messages travel through the engine's post lane: a
	// drop decision falls in the middle of a job's probes, the dropped
	// send's timeout takes a sequence number and so breaks the burst in
	// two, and each retry re-enters the lane alone.
	nojitter := msgloss
	nojitterFaults := *msgloss.Faults
	nojitterFaults.Jitter = 0
	nojitter.Faults = &nojitterFaults
	cases["hawk-loss-nojitter"] = nojitter

	spec := base
	spec.Policy = "hawk"
	spec.Faults = &policy.FaultSpec{
		Speculate: true, SpeculatePercentile: 90,
		Stragglers: []policy.StragglerEvent{
			{At: 20, Count: 80, Factor: 6},
			{At: 120, Count: 40, Factor: 1},
		},
	}
	cases["hawk-speculation"] = spec

	// Composed scenarios that reach the wait kinds the single-plane cases
	// above never park in (see the wait-kind table in docs/ARCHITECTURE.md).
	// A 30 s window with both schedulers failed, under the hawk-churn node
	// script: jobs, central tasks, probe re-sends and probe replies all wait
	// for a live scheduler and drain on the recoveries.
	blackout := churn
	blackout.Schedulers = &policy.SchedulerSpec{Count: 2}
	blackout.Churn = &policy.ChurnSpec{Events: append([]policy.ChurnEvent{
		{At: 20, Kind: policy.ChurnSchedFail, Node: 0},
		{At: 20, Kind: policy.ChurnSchedFail, Node: 1},
		{At: 50, Kind: policy.ChurnSchedRecover, Node: 0},
		{At: 50, Kind: policy.ChurnSchedRecover, Node: 1},
	}, churn.Churn.Events...)}
	cases["hawk-sched2-blackout"] = blackout

	// The hawk-msgloss mix with one retry, node churn and a central outage:
	// message chains exhaust their one retry and end in the reliable send,
	// and central placements made during the outage park under WaitCentral
	// until central-up releases them. Nodes recover in two steps, one inside
	// the outage and one after it.
	lossy := msgloss
	lossyFaults := *msgloss.Faults
	lossyFaults.MaxRetries = 1
	lossy.Faults = &lossyFaults
	lossy.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: 30, Kind: policy.ChurnFail, Count: 60},
		{At: 40, Kind: policy.ChurnCentralDown},
		{At: 120, Kind: policy.ChurnRecover, Count: 30},
		{At: 160, Kind: policy.ChurnCentralUp},
		{At: 200, Kind: policy.ChurnRecover, Count: 30},
	}}
	cases["hawk-lossy-churn"] = lossy
	return goldenTrace(), cases
}

func goldenTrace() *workload.Trace {
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 250, MeanInterArrival: 0.4, Seed: 11,
	})
}

// runPinned is Run with the per-entry wait recorder installed: the pinned
// report carries every queue entry's wait in the order the entries started,
// as the goldens were generated with. Any other run leaves the hooks nil.
func runPinned(trace *workload.Trace, cfg policy.Config) (*pinnedReport, error) {
	return runPinnedSim(newSimulation(trace, cfg))
}

func runPinnedSim(s *simulation, err error) (*pinnedReport, error) {
	if err != nil {
		return nil, err
	}
	r := newWaitRecorder()
	s.arrived, s.started = r.arrived, r.started
	res, err := s.run()
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return &pinnedReport{
		Report:             res,
		UtilizationSamples: res.Utilization.Samples(),
		ShortEntryWaits:    r.waits[0],
		LongEntryWaits:     r.waits[1],
	}, nil
}

// waitRecorder measures how long each queue entry waited at nodes before
// its slot opened, split by job class (short first, long second). An entry
// carries no arrival time, so the recorder keys arrivals itself: a task by
// (jidx, tidx, task and speculation flags), a probe by a serial number it
// stamps into the probe's tidx, which no probe path reads. Steals copy
// entries, so a key survives them; a task re-sent after a failure arrives
// again under its old key and overwrites the stale arrival.
type waitRecorder struct {
	probes  int32
	arrival map[waitKey]float64
	waits   [2][]float64
	// err is the first entry that started without a recorded arrival.
	err error
}

type waitKey struct {
	jidx, tidx int32
	flags      entryFlags
}

func newWaitRecorder() *waitRecorder {
	return &waitRecorder{arrival: map[waitKey]float64{}}
}

func waitKeyOf(e entry) waitKey {
	return waitKey{jidx: e.jidx, tidx: e.tidx, flags: e.flags & (entryTask | entrySpec)}
}

func (r *waitRecorder) arrived(e entry, now float64) entry {
	if e.flags&entryTask == 0 {
		e.tidx = r.probes
		r.probes++
	}
	r.arrival[waitKeyOf(e)] = now
	return e
}

func (r *waitRecorder) started(e entry, now float64) {
	k := waitKeyOf(e)
	at, ok := r.arrival[k]
	if !ok {
		if r.err == nil {
			r.err = fmt.Errorf("wait recorder: entry %+v started at %g with no recorded arrival", e, now)
		}
		return
	}
	delete(r.arrival, k)
	c := 0
	if e.long() {
		c = 1
	}
	r.waits[c] = append(r.waits[c], now-at)
}

// The recorder is the golden waits' only source of arrival times, so an
// entry that starts without an arrival it recorded — a key it never stored,
// or one a second start already consumed — must fail the run rather than
// record a wait it cannot know.
func TestWaitRecorderRejectsUnrecordedStart(t *testing.T) {
	r := newWaitRecorder()
	task := entry{jidx: 2, tidx: 5, flags: entryTask | entryLong}
	probe := r.arrived(entry{jidx: 2, tidx: -1}, 1)
	if probe.tidx != 0 {
		t.Fatalf("first probe stamped tidx %d, want serial 0", probe.tidx)
	}
	r.arrived(task, 1.5)
	r.started(probe, 3)
	r.started(task, 4)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.waits[0][0] != 2 || r.waits[1][0] != 2.5 {
		t.Fatalf("waits = %v, want [[2] [2.5]]", r.waits)
	}
	// A speculative duplicate of the same task is a different entry.
	r.started(entry{jidx: 2, tidx: 5, flags: entryTask | entrySpec}, 5)
	if r.err == nil {
		t.Fatal("a speculative duplicate started with no recorded arrival and the recorder accepted it")
	}
	r = newWaitRecorder()
	r.started(task, 4)
	if r.err == nil {
		t.Fatal("a task started with no recorded arrival and the recorder accepted it")
	}
	r = newWaitRecorder()
	probe = r.arrived(entry{jidx: 2, tidx: -1}, 1)
	r.started(probe, 3)
	r.started(probe, 3)
	if r.err == nil {
		t.Fatal("a probe started twice on one arrival and the recorder accepted it")
	}
}

func marshalPinned(t *testing.T, res *pinnedReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReportsMatchGolden(t *testing.T) {
	trace, cases := goldenCases()
	update := os.Getenv("SIM_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	file := filepath.Join(t.TempDir(), "golden.trace.gz")
	if err := workload.SaveSource(file, workload.NewTraceSource(trace)); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := runPinned(trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One makespan on every run: the last job's completion.
			last := 0.0
			for _, j := range res.Report.Jobs {
				last = max(last, j.SubmitTime+j.Runtime)
			}
			if res.Report.Makespan != last {
				t.Errorf("makespan %g, want the last completion %g", res.Report.Makespan, last)
			}
			got := marshalPinned(t, res)
			path := filepath.Join("testdata", "golden", name+".json")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with SIM_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: report differs from pinned golden output.\n"+
					"The simulator must stay byte-identical across perf work; if this "+
					"change is intentional, regenerate with SIM_UPDATE_GOLDEN=1 and say why in the PR.",
					name)
			}
			src, err := workload.OpenSource(file)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if res, err = runPinnedSim(newSimulationSource(src, cfg)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalPinned(t, res), want) {
				t.Fatalf("%s: the same jobs pulled from a hawk-trace file give a different report", name)
			}
			// The config a golden states reproduces it: every key is a
			// Config field, and every field survives JSON.
			var pinned struct {
				Report struct {
					Config json.RawMessage `json:"config"`
				} `json:"report"`
			}
			if err := json.Unmarshal(want, &pinned); err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(pinned.Report.Config))
			dec.DisallowUnknownFields()
			var stated policy.Config
			if err := dec.Decode(&stated); err != nil {
				t.Fatalf("%s: the golden's config does not decode: %v", name, err)
			}
			if res, err = runPinned(trace, stated); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalPinned(t, res), want) {
				t.Fatalf("%s: the golden's own config gives a different report", name)
			}
		})
	}
}

// TestBackendsProduceIdenticalReports re-checks the engine-backend
// equivalence the golden suite pins implicitly: every golden (trace,
// config) point is run once on each event-queue backend and the two
// serialized reports must match byte for byte. The golden files prove
// the ladder reproduces the order the heap had when they were
// generated; this proves the two current backends agree with each
// other directly, without any file in the loop.
func TestBackendsProduceIdenticalReports(t *testing.T) {
	trace, cases := goldenCases()
	defer func(b eventq.Backend) { engineBackend = b }(engineBackend)
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			engineBackend = eventq.BackendLadder
			ladder, err := runPinned(trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			engineBackend = eventq.BackendHeap
			heap, err := runPinned(trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalPinned(t, ladder), marshalPinned(t, heap)) {
				t.Fatalf("%s: ladder and heap backends produced different reports; "+
					"the engine's dispatch order must be backend-independent", name)
			}
		})
	}
}
