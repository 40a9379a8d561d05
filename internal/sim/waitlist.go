package sim

import "repro/internal/policy"

// The waitlist: the one place work waits when it cannot be placed right now.
// The rules — the kinds, which recovery releases each, the deadlock clauses —
// are policy.WaitRules, shared with the live engine; what is the simulator's
// own is the entry point each kind resumes through and the release loop,
// whose order (swap a list out, resume its items, next kind) the goldens pin.

// waiting is one parked item: a job (tidx < 0) or one of its tasks, plus
// the held slot when what waits is a node's probe round trip.
type waiting struct {
	jidx, tidx int32
	node       int32
	gen        uint8
}

// resumes binds each kind to the ordinary entry point its items re-enter
// through.
var resumes = [policy.NumWaitKinds]func(*simulation, waiting){
	policy.WaitLostProbe:  (*simulation).resumeProbe,
	policy.WaitPoolWidth:  (*simulation).resumeJob,
	policy.WaitCentral:    (*simulation).resumeCentral,
	policy.WaitExhausted:  (*simulation).resumeTask,
	policy.WaitSchedJob:   (*simulation).resumeJob,
	policy.WaitSchedTask:  (*simulation).resumeCentral,
	policy.WaitSchedProbe: (*simulation).resumeProbe,
	policy.WaitSchedReply: (*simulation).resumeReply,
}

// park makes one item wait under kind k. Report.CentralDeferred counts
// exactly the central placements that had to.
func (s *simulation) park(k policy.WaitKind, w waiting) {
	if k == policy.WaitCentral {
		s.res.CentralDeferred++
	}
	s.waits[k] = append(s.waits[k], w)
}

// release re-enters everything the recovery unblocks. Each list is swapped
// out first, so an item that has to wait again — under its old kind or
// another — parks afresh instead of being revisited. (Only central placement
// parks under a HeldByCentral kind, so a non-empty list implies the central
// queue centralUnavailable dereferences exists.)
func (s *simulation) release(by policy.Recovery) {
	for k := range s.waits {
		if !by.Releases(policy.WaitKind(k)) || len(s.waits[k]) == 0 || policy.WaitRules[k].HeldByCentral && s.centralUnavailable() {
			continue
		}
		pending := s.waits[k]
		s.waits[k] = nil
		for _, w := range pending {
			resumes[k](s, w)
		}
	}
}

// The resume functions re-enter an item through the entry point that parked it.

func (s *simulation) resumeProbe(w waiting) { s.resendProbe(w.jidx) }
func (s *simulation) resumeJob(w waiting)   { s.routeJob(w.jidx) }
func (s *simulation) resumeTask(w waiting)  { s.placeTask(w.jidx, w.tidx) }

func (s *simulation) resumeCentral(w waiting) {
	if w.tidx < 0 {
		s.centralJob(w.jidx)
		return
	}
	s.centralTask(w.jidx, w.tidx)
}

func (s *simulation) resumeReply(w waiting) {
	if s.dyn != nil && s.dyn.epoch[w.node] != w.gen {
		return // the node failed while parked; its probe was re-sent then
	}
	s.sendReply(w.node, w.gen, w.jidx, 0)
}
