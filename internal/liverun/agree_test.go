package liverun

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// agreeTrace is twelve jobs in three bursts 100 ms apart, each three short
// two-task jobs and one long one. Every scripted event TestEnginesAgree uses
// is at least 30 ms from every submit, so real-time jitter cannot move a job
// to the other side of an event.
func agreeTrace() *workload.Trace {
	var jobs []*workload.Job
	id := 0
	for burst := 0; burst < 3; burst++ {
		at := 0.05 + 0.1*float64(burst)
		for i := 0; i < 3; i++ {
			id++
			jobs = append(jobs, job(id, at, 40, 40))
		}
		id++
		jobs = append(jobs, job(id, at, 600, 600)) // long
	}
	return msTrace(500, jobs...)
}

// One rule set, two engines (§4.10): the simulator and the live engine run
// the same trace under the same Config and must reach the same verdict — both
// complete, or both deadlock with the same diagnosis — with the counts the
// shared rules make deterministic equal.
func TestEnginesAgree(t *testing.T) {
	tr := agreeTrace()
	tasks := 0
	for _, j := range tr.Jobs {
		tasks += j.NumTasks()
	}
	withChurn := func(pol string, events ...policy.ChurnEvent) policy.Config {
		cfg := fastConfig(pol)
		cfg.Churn = &policy.ChurnSpec{Events: events}
		return cfg
	}
	schedulersGone := func(pol string, at float64) policy.Config {
		cfg := withChurn(pol,
			policy.ChurnEvent{At: at, Kind: policy.ChurnSchedFail, Node: 0},
			policy.ChurnEvent{At: at, Kind: policy.ChurnSchedFail, Node: 1})
		cfg.Schedulers = &policy.SchedulerSpec{Count: 2, SnapshotInterval: 0.05}
		return cfg
	}
	// One node: job 1 runs while the probes of jobs 2 and 3 queue behind it.
	// The schedulers die, job 2's probe round trip parks holding the slot,
	// and job 3's probe is stuck behind it without being parked itself.
	heldSlot := schedulersGone("sparrow", 0.05)
	heldSlot.NumNodes = 1
	// Every lossy send is dropped: each probe, reply and assignment is
	// dropped MaxRetries+1 times and then sent reliably, on both engines.
	totalLoss := func(pol string) policy.Config {
		cfg := fastConfig(pol)
		f := policy.UniformLoss(1)
		f.MaxRetries = 1
		cfg.Faults = &f
		return cfg
	}
	// The live engine stops when the last job completes, so a probe still
	// queued behind that job's task never sends its request there, while
	// the simulator drains it. agreeTrace ends on a long task that short
	// jobs' probes can queue behind; a lone short job submitted after it
	// has finished ends the run on idle nodes instead.
	lossTrace := msTrace(500, append(agreeTrace().Jobs, job(13, 1.0, 40, 40))...)
	// Steals are left out: how many steal contacts a run makes (and drops)
	// depends on timing.
	sameDrops := func(t *testing.T, s, l *policy.Report, serr, lerr error) {
		bothComplete(t, serr, lerr)
		if s.TasksExecuted != l.TasksExecuted || l.TasksExecuted != int64(tasks+2) {
			t.Errorf("tasks executed: sim %d, live %d, trace %d", s.TasksExecuted, l.TasksExecuted, tasks+2)
		}
		sd, ld := s.MessagesDropped, l.MessagesDropped
		if sd.Probes != ld.Probes || sd.Replies != ld.Replies || sd.Assigns != ld.Assigns {
			t.Errorf("dropped probes/replies/assigns: sim %d/%d/%d, live %d/%d/%d",
				sd.Probes, sd.Replies, sd.Assigns, ld.Probes, ld.Replies, ld.Assigns)
		}
		// Both engines re-send a dropped probe to the node it was addressed
		// to, so they send and re-send the same number of probes.
		if s.ProbesSent != l.ProbesSent || s.ProbeRetries != l.ProbeRetries {
			t.Errorf("probes sent/retried: sim %d/%d, live %d/%d", s.ProbesSent, s.ProbeRetries, l.ProbesSent, l.ProbeRetries)
		}
	}

	for _, c := range []struct {
		name  string
		trace *workload.Trace // nil: agreeTrace
		cfg   policy.Config
		check func(t *testing.T, s, l *policy.Report, serr, lerr error)
	}{
		{"static", nil, fastConfig("hawk"), func(t *testing.T, s, l *policy.Report, serr, lerr error) {
			bothComplete(t, serr, lerr)
			if len(s.Jobs) != len(l.Jobs) || len(l.Jobs) != tr.Len() {
				t.Errorf("jobs: sim %d, live %d, trace %d", len(s.Jobs), len(l.Jobs), tr.Len())
			}
			if s.TasksExecuted != int64(tasks) || l.TasksExecuted != int64(tasks) {
				t.Errorf("tasks executed: sim %d, live %d, trace %d", s.TasksExecuted, l.TasksExecuted, tasks)
			}
		}},
		{"node churn with recovery", nil, withChurn("hawk",
			policy.ChurnEvent{At: 0.1, Kind: policy.ChurnFail, Count: 6},
			policy.ChurnEvent{At: 0.2, Kind: policy.ChurnRecover, Count: 6},
		), func(t *testing.T, _, _ *policy.Report, serr, lerr error) {
			bothComplete(t, serr, lerr)
		}},
		{"both schedulers down forever", nil, schedulersGone("hawk", 0.01), sameDeadlock},
		{"work queued behind a held slot", msTrace(500, job(1, 0, 200), job(2, 0.005, 10), job(3, 0.01, 10)),
			heldSlot, sameDeadlock},
		{"central down forever", nil, withChurn("hawk",
			policy.ChurnEvent{At: 0.01, Kind: policy.ChurnCentralDown},
		), sameDeadlock},
		{"sparrow with an outage window", nil, withChurn("sparrow",
			policy.ChurnEvent{At: 0.1, Kind: policy.ChurnCentralDown},
			policy.ChurnEvent{At: 0.2, Kind: policy.ChurnCentralUp},
		), func(t *testing.T, s, l *policy.Report, serr, lerr error) {
			bothComplete(t, serr, lerr)
			if so, lo := duringOutage(s), duringOutage(l); so != lo || so == 0 {
				t.Errorf("jobs during the outage: sim %d, live %d", so, lo)
			}
			if !(s.CentralOutageSeconds > 0) || !(l.CentralOutageSeconds > 0) {
				t.Errorf("outage seconds: sim %g, live %g", s.CentralOutageSeconds, l.CentralOutageSeconds)
			}
		}},
		{"total loss, sparrow", lossTrace, totalLoss("sparrow"), sameDrops},
		{"total loss, hawk", lossTrace, totalLoss("hawk"), sameDrops},
	} {
		t.Run(c.name, func(t *testing.T) {
			trace := tr
			if c.trace != nil {
				trace = c.trace
			}
			s, serr := sim.Run(trace, c.cfg)
			l, lerr := runWithin(t, 30*time.Second, trace, c.cfg)
			c.check(t, s, l, serr, lerr)
		})
	}
}

func bothComplete(t *testing.T, serr, lerr error) {
	t.Helper()
	if serr != nil || lerr != nil {
		t.Fatalf("want both engines to complete; sim: %v; live: %v", serr, lerr)
	}
}

// sameDeadlock requires both engines to end in the deadlock diagnosis, with
// the same text after the engine prefix.
func sameDeadlock(t *testing.T, _, _ *policy.Report, serr, lerr error) {
	t.Helper()
	if serr == nil || lerr == nil {
		t.Fatalf("want both engines to deadlock; sim: %v; live: %v", serr, lerr)
	}
	t.Log(lerr)
	s, sok := strings.CutPrefix(serr.Error(), "sim: ")
	l, lok := strings.CutPrefix(lerr.Error(), "liverun: ")
	if !sok || !lok || s != l {
		t.Errorf("diagnoses differ:\n sim: %v\nlive: %v", serr, lerr)
	}
}

func duringOutage(r *policy.Report) int {
	n := 0
	for _, j := range r.Jobs {
		if j.DuringOutage {
			n++
		}
	}
	return n
}

// Nothing re-sorts a workload: an in-memory trace keeps the order of a
// hawk-trace file, and the simulator, the live engine and Materialize each
// refuse a trace that breaks it with the message the file reader gives for
// the same records.
func TestOutOfOrderTraceRefusedEverywhere(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   *workload.Trace
		want string
	}{
		{"submit time falls", msTrace(500, job(1, 0.02, 10), job(2, 0.01, 10)), "submit time 0.01 out of order (previous 0.02)"},
		{"id descends", msTrace(500, job(2, 0.01, 10), job(1, 0.02, 10)), "job id 1 after job id 2 (ids must ascend)"},
	} {
		var b strings.Builder
		fmt.Fprintf(&b, "#hawk-trace v=1 name=%q cutoff=%g frac=%g jobs=%d\n", c.tr.Name, c.tr.Cutoff, c.tr.ShortPartitionFraction, c.tr.Len())
		for _, j := range c.tr.Jobs {
			fmt.Fprintf(&b, "%d,%g,%d", j.ID, j.SubmitTime, j.NumTasks())
			for _, d := range j.Durations {
				fmt.Fprintf(&b, ",%g", d)
			}
			b.WriteByte('\n')
		}
		path := filepath.Join(t.TempDir(), "t.trace")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		_, reader := workload.LoadFile(path)
		if reader == nil || !strings.Contains(reader.Error(), c.want) {
			t.Fatalf("%s: the reader says %v, want %q", c.name, reader, c.want)
		}
		for consumer, run := range map[string]func() error{
			"sim.Run":     func() error { _, err := sim.Run(c.tr, fastConfig("hawk")); return err },
			"liverun.Run": func() error { _, err := Run(c.tr, fastConfig("hawk")); return err },
			"workload.Materialize": func() error {
				_, err := workload.Materialize(workload.NewTraceSource(c.tr))
				return err
			},
		} {
			if err := run(); fmt.Sprint(err) != reader.Error() {
				t.Errorf("%s: %s says %v, the reader %v", c.name, consumer, err, reader)
			}
		}
	}
}
