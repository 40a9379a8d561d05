package liverun

import (
	"sort"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/randdist"
)

// The live engine's gray-failure plane: the rules of policy.FaultSpec on
// real timers instead of virtual-clock events. Message loss is decided at
// send time from the dedicated fault stream; a dropped transmission sleeps
// out its Config.Backoff in the sender's goroutine and re-sends, and the
// send after the MaxRetries-th retry is reliable — the simulator's rule
// (policy.FaultSpec).
//
// Stragglers broadcast a slow factor to their node monitors, which re-time
// any in-flight sleep (nodeMonitor.sleepTask). Speculation duplicates a
// probe-scheduled task still incomplete specThresh after it started; the
// first completion wins on the job's per-task bitmap, and the loser runs to
// completion (only node failure can interrupt a live sleep).
//
// The plane's counters are the Report's own (cluster.count).
type faultPlane struct {
	spec policy.FaultSpec
	mu   sync.Mutex       // guards src
	src  *randdist.Source // the Seed+SeedFaults stream
}

func newFaultPlane(spec policy.FaultSpec, seed int64) *faultPlane {
	return &faultPlane{spec: spec, src: randdist.New(seed + policy.SeedFaults)}
}

// drop draws one loss decision.
func (f *faultPlane) drop(p float64) bool {
	if p == 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.src.Float64() < p
}

// jitterDelay draws one extra per-leg delay, uniform in [0, Jitter).
func (f *faultPlane) jitterDelay() time.Duration {
	if f.spec.Jitter == 0 {
		return 0
	}
	f.mu.Lock()
	j := f.src.Float64() * f.spec.Jitter
	f.mu.Unlock()
	return time.Duration(j * float64(time.Second))
}

// lossySend models transmitting one scheduler message over the lossy
// plane: the first send and each of the MaxRetries retries draw a loss
// decision, each dropped transmission times out and re-sends after its
// backoff, and the send after the last retry is delivered reliably. Each
// drop counts against the message class and a retry. A retry re-sends to
// the same node.
func (c *cluster) lossySend(p float64, class, retries *int64) {
	f := c.faults
	if f == nil || p == 0 {
		return
	}
	for attempt := 1; attempt <= f.spec.MaxRetries+1; attempt++ {
		if !f.drop(p) {
			return
		}
		c.resMu.Lock()
		*class++
		*retries++
		c.resMu.Unlock()
		time.Sleep(time.Duration(c.cfg.Backoff(attempt) * float64(time.Second)))
	}
}

// deliverProbe carries one probe to its node over the lossy plane.
func (c *cluster) deliverProbe(n *nodeMonitor, jr *jobRuntime) {
	if f := c.faults; f != nil {
		c.lossySend(f.spec.ProbeLoss, &c.res.MessagesDropped.Probes, &c.res.ProbeRetries)
	}
	c.latency()
	n.enqueue(entry{probe: true, job: jr})
}

// deliverTask carries one placed task to its node over the lossy plane;
// commit selects the multi-scheduler commit class over plain assignment.
func (c *cluster) deliverTask(n *nodeMonitor, e entry, commit bool) {
	if f := c.faults; f != nil {
		p, class := f.spec.AssignLoss, &c.res.MessagesDropped.Assigns
		if commit {
			p, class = f.spec.CommitLoss, &c.res.MessagesDropped.Commits
		}
		c.lossySend(p, class, &c.res.AssignRetries)
	}
	c.latency()
	n.enqueue(e)
}

// runStragglers replays the scripted straggler events on the real-time
// clock, like runChurn: events apply in time order, random picks draw from
// the fault stream over the live membership.
func (c *cluster) runStragglers() {
	f := c.faults
	events := append([]policy.StragglerEvent(nil), f.spec.Stragglers...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		target := c.started.Add(time.Duration(ev.At * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			select {
			case <-time.After(d):
			case <-c.stop:
				return
			}
		}
		c.mu.Lock()
		f.mu.Lock()
		ids := c.view.SampleAllInto(nil, f.src, ev.Count)
		f.mu.Unlock()
		c.mu.Unlock()
		for _, id := range ids {
			c.nodes[id].setSlow(ev.Factor)
		}
		c.count(&c.res.StragglerSlowdowns, int64(len(ids)))
	}
}

// armSpeculation schedules a duplicate launch for a probe-scheduled task:
// if the task instance is still incomplete specThresh after it started, a
// copy is sent (loss-free, like the simulator's duplicate send — the
// defense must not need defending) to one random live node. The first
// completion wins on the job's bitmap; the loser runs to completion and is
// counted as wasted.
func (c *cluster) armSpeculation(jr *jobRuntime, dur time.Duration, handle, origNode int) {
	f := c.faults
	time.AfterFunc(jr.specThresh, func() {
		select {
		case <-c.stop:
			return
		default:
		}
		if jr.isCompleted(handle) {
			return
		}
		c.mu.Lock()
		f.mu.Lock()
		ids := c.view.SampleAllInto(nil, f.src, 1)
		f.mu.Unlock()
		c.mu.Unlock()
		if len(ids) == 0 || ids[0] == origNode {
			return // no live host besides the original: skip, don't retry
		}
		c.count(&c.res.SpeculativeLaunches, 1)
		c.latency()
		c.nodes[ids[0]].enqueue(entry{job: jr, dur: dur, handle: handle, spec: true})
	})
}
