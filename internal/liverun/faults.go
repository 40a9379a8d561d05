package liverun

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/randdist"
)

// The live engine's gray-failure plane: the rules of policy.FaultSpec on
// real timers instead of virtual-clock events. Message loss is decided at
// send time from the dedicated fault stream; a dropped transmission sleeps
// out its FaultSpec.Backoff in the sender's goroutine and re-sends, and the
// send after MaxRetries is reliable (the one engine divergence — see
// policy.FaultSpec).
//
// Stragglers broadcast a slow factor to their node monitors, which re-time
// any in-flight sleep (nodeMonitor.sleepTask). Speculation duplicates a
// probe-scheduled task still incomplete specThresh after it started; the
// first completion wins on the job's per-task bitmap, and the loser runs to
// completion (only node failure can interrupt a live sleep).
type faultPlane struct {
	spec policy.FaultSpec
	mu   sync.Mutex       // guards src
	src  *randdist.Source // the Seed+SeedFaults stream

	drops struct {
		probes, replies, steals, assigns, commits atomic.Int64
	}
	probeTimeouts atomic.Int64
	probeRetries  atomic.Int64
	assignRetries atomic.Int64
	specLaunches  atomic.Int64
	specWins      atomic.Int64
	specWasted    atomic.Int64
	straggles     atomic.Int64
}

func newFaultPlane(spec policy.FaultSpec, seed int64) *faultPlane {
	return &faultPlane{spec: spec, src: randdist.New(seed + policy.SeedFaults)}
}

// drop draws one loss decision, counting a hit against the class counter.
func (f *faultPlane) drop(p float64, class *atomic.Int64) bool {
	if p == 0 {
		return false
	}
	f.mu.Lock()
	hit := f.src.Float64() < p
	f.mu.Unlock()
	if hit {
		class.Add(1)
	}
	return hit
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
// plane: each dropped transmission times out and re-sends after its
// backoff, up to MaxRetries, after which the final send is delivered
// reliably (the engine divergence stated on policy.FaultSpec).
// timeouts is nil for the assignment classes, which count retries only.
func (c *cluster) lossySend(p float64, class, timeouts, retries *atomic.Int64) {
	f := c.faults
	if f == nil || p == 0 {
		return
	}
	for attempt := 1; attempt <= f.spec.MaxRetries; attempt++ {
		if !f.drop(p, class) {
			return
		}
		if timeouts != nil {
			timeouts.Add(1)
		}
		retries.Add(1)
		time.Sleep(time.Duration(f.spec.Backoff(attempt) * float64(time.Second)))
	}
}

// deliverProbe carries one probe to its node over the lossy plane.
func (c *cluster) deliverProbe(n *nodeMonitor, jr *jobRuntime) {
	if f := c.faults; f != nil {
		c.lossySend(f.spec.ProbeLoss, &f.drops.probes, &f.probeTimeouts, &f.probeRetries)
	}
	c.latency()
	n.enqueue(entry{probe: true, job: jr})
}

// deliverTask carries one placed task to its node over the lossy plane;
// commit selects the multi-scheduler commit class over plain assignment.
func (c *cluster) deliverTask(n *nodeMonitor, e entry, commit bool) {
	if f := c.faults; f != nil {
		p, class := f.spec.AssignLoss, &f.drops.assigns
		if commit {
			p, class = f.spec.CommitLoss, &f.drops.commits
		}
		c.lossySend(p, class, nil, &f.assignRetries)
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
		var ids []int
		if ev.Count > 0 {
			c.viewMu.Lock()
			f.mu.Lock()
			ids = c.view.SampleAllInto(nil, f.src, ev.Count)
			f.mu.Unlock()
			c.viewMu.Unlock()
		} else {
			ids = []int{ev.Node}
		}
		for _, id := range ids {
			c.nodes[id].setSlow(ev.Factor)
			f.straggles.Add(1)
		}
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
		c.viewMu.Lock()
		f.mu.Lock()
		ids := c.view.SampleAllInto(nil, f.src, 1)
		f.mu.Unlock()
		c.viewMu.Unlock()
		if len(ids) == 0 || ids[0] == origNode {
			return // no live host besides the original: skip, don't retry
		}
		f.specLaunches.Add(1)
		c.latency()
		c.nodes[ids[0]].enqueue(entry{job: jr, dur: dur, handle: handle, spec: true})
	})
}
