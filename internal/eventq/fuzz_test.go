package eventq

import (
	"encoding/binary"
	"testing"
)

// FuzzLadderVsHeap drives a heap engine and a ladder engine through the
// identical fuzzer-chosen schedule/pop/reserve program and requires the
// two dispatch streams — (clock, payload) pairs — to match exactly, along
// with Pending after every op and Executed. The heap is the reference
// implementation of the (timestamp, seq) total order; any divergence is a
// ladder ordering bug.
//
// Program encoding (one op per 3 bytes, permissive by construction so
// every input is a valid program):
//
//	byte 0 % 8: 0-3 schedule via At, 4 schedule via AtReserved (if any
//	            reserved seqs remain; else At), 5-7 pop via Step
//	bytes 1-2:  time offset, quantized to quarter-seconds so equal
//	            timestamps — the tie-break cases — are common; an offset
//	            of 0xFFxx maps far into the future to exercise the
//	            ladder's overflow tier
//
// The first byte of the input picks how many sequence numbers to reserve
// (0..63) before anything is scheduled.
func FuzzLadderVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 0, 5, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 5, 0, 0, 5, 0, 0})
	// Far-future bursts mixed with ties and pops.
	f.Add([]byte{
		16,
		0, 0xFF, 0xFF, 4, 0, 0, 0, 0xFF, 0x00, 4, 2, 0,
		5, 0, 0, 6, 0, 0, 7, 0, 0, 0, 2, 0, 4, 2, 0,
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		type fired struct {
			now float64
			id  int
		}
		var gotH, gotL []fired
		h := New(func(now float64, id int) { gotH = append(gotH, fired{now, id}) }, 0)
		l := New(func(now float64, id int) { gotL = append(gotL, fired{now, id}) }, 0, WithBackend(BackendLadder))
		var reserved, nextReserved uint64
		if len(program) > 0 {
			reserved = uint64(program[0] % 64)
			program = program[1:]
			h.ReserveSeqs(reserved)
			l.ReserveSeqs(reserved)
			nextReserved = 1
		}
		id := 0
		for len(program) >= 3 {
			op := program[0] % 8
			raw := binary.LittleEndian.Uint16(program[1:3])
			program = program[3:]
			dt := float64(raw) * 0.25
			if raw >= 0xFF00 {
				// Overflow-tier territory: far beyond the live window.
				dt = float64(raw) * 1e7
			}
			switch {
			case op == 4 && nextReserved > 0 && nextReserved <= reserved:
				h.AtReserved(h.Now()+dt, nextReserved, id)
				l.AtReserved(l.Now()+dt, nextReserved, id)
				nextReserved++
				id++
			case op < 5:
				h.After(dt, id)
				l.After(dt, id)
				id++
			default:
				h.Step()
				l.Step()
			}
			if h.Pending() != l.Pending() {
				t.Fatalf("pending diverged mid-program: heap %d ladder %d", h.Pending(), l.Pending())
			}
		}
		h.Run()
		l.Run()
		if h.Executed() != l.Executed() {
			t.Fatalf("executed diverged: heap %d ladder %d", h.Executed(), l.Executed())
		}
		if len(gotH) != len(gotL) {
			t.Fatalf("dispatched %d (heap) vs %d (ladder) events", len(gotH), len(gotL))
		}
		for i := range gotH {
			if gotH[i] != gotL[i] {
				t.Fatalf("dispatch %d diverged: heap (t=%v id=%d), ladder (t=%v id=%d)",
					i, gotH[i].now, gotH[i].id, gotL[i].now, gotL[i].id)
			}
		}
	})
}

// postMachine is one engine under FuzzPostVsAfter's script. post is the
// only thing that differs between the machines compared: Engine.Post on
// the subjects, After(legs*delay) on the reference.
type postMachine struct {
	eng                    *Engine[int]
	post                   func(legs, ev int)
	reserved, nextReserved uint64
	ids                    int
	log                    []postFired
}

type postFired struct {
	now     float64
	ev      int
	pending int // Pending() as the handler saw it
}

// event numbers a new payload: a unique id above a reaction byte that says
// what the handler does when the event fires (see dispatch).
func (m *postMachine) event(reaction byte) int {
	m.ids++
	return m.ids<<8 | int(reaction)
}

// postNew posts k new events; bit i of legBits picks the i-th one's lane.
func (m *postMachine) postNew(k int, reaction byte, legBits int) {
	for i := 0; i < k; i++ {
		m.post(1+legBits>>i&1, m.event(reaction))
	}
}

// atReserved schedules on the next unused reserved sequence number, or as
// an ordinary At once they are spent.
func (m *postMachine) atReserved(t float64, reaction byte) {
	if m.nextReserved > m.reserved {
		m.eng.At(t, m.event(reaction))
		return
	}
	m.eng.AtReserved(t, m.nextReserved, m.event(reaction))
	m.nextReserved++
}

// dispatch logs the event and reacts. The low two bits of the reaction
// pick what the handler schedules, the next two how many posts, and the
// high nibble is the reaction its children carry — so a child's children
// do nothing and every script terminates. The children's leg counts are the
// low bits of the event's own id.
//
//	0: nothing
//	1: post 1-4 children
//	2: an At for the current instant, then post 1-4 children (at delay 0 the
//	   At and the posts are for one instant: sequence number decides)
//	3: post, AtReserved for the current instant, post — the reserved event
//	   outranks every posted event still waiting for this instant
func (m *postMachine) dispatch(now float64, ev int) {
	m.log = append(m.log, postFired{now, ev, m.eng.Pending()})
	r, legBits := byte(ev), ev>>8
	child, k := r>>4, int(r>>2&3)+1
	switch r & 3 {
	case 1:
		m.postNew(k, child, legBits)
	case 2:
		m.eng.At(now, m.event(child))
		m.postNew(k, child, legBits)
	case 3:
		m.postNew(1, child, legBits)
		m.atReserved(now, child)
		m.postNew(1, child, legBits>>1)
	}
}

// FuzzPostVsAfter holds the post lanes to their contract: an engine whose
// constant-delay sends go through Post must be indistinguishable — dispatch
// sequence, clock and Pending at every dispatch and after every op, Executed,
// draining to zero — from a heap engine on which Post(legs, ev) is
// After(float64(legs)*delay, ev), on both backends. Only Entries may differ:
// a post pushes nothing.
//
// Program encoding: byte 0 % 64 sequence numbers are reserved, byte 1 % 4
// quarter-seconds is the post delay (zero included: every posted event is
// then for the current instant, on both lanes), then one op per 3 bytes
// (op, a, b):
//
//	op % 8: 0 At(now + a/4), 1 After(a/4), 2 Post a%4+1 times, the i-th with
//	        1 + bit 2+i of a legs, 4 AtReserved(now + a/4), 3 and 5-7 Step
//	b:      the reaction of the events scheduled (postMachine.dispatch)
//
// Times are quarter-seconds so that an At often lands on a posted event's
// instant, and so does a one-leg post made one delay after a two-leg one.
func FuzzPostVsAfter(f *testing.F) {
	const (
		at, post, atReserved, step = 0, 2, 4, 5
		quarter                    = 1 // header byte 1: post delay 0.25 s
		twoLegs, oneThenTwo        = 1 << 2, 1 | 2<<2
	)
	f.Add([]byte{})
	// An At for a posted event's own instant between two posts.
	f.Add([]byte{0, quarter, post, 0, 0, at, 1, 0, post, 0, 0, step, 0, 0, step, 0, 0})
	// A reserved-sequence event at a lane event's instant fires first.
	f.Add([]byte{4, quarter, post, 2, 0, atReserved, 1, 0, post, 0, 0, step, 0, 0})
	// Delay 0, and every posted event posts from inside its handler: the
	// lanes grow while Step is reading their fronts.
	f.Add([]byte{0, 0, post, 2, 0x01, step, 0, 0})
	// Delay 0, and a post for an instant whose posted events have all been
	// dispatched: it finds the lanes empty again (found by this fuzzer).
	f.Add([]byte{0, 0, post, 0, 0, step, 0, 0, post, 0, 0})
	// A single post: the other lane stays empty throughout.
	f.Add([]byte{0, quarter, post, 0, 0, step, 0, 0})
	// Posts for one instant made by different handlers, each after an At of
	// its own.
	f.Add([]byte{0, quarter, at, 1, 0x0A, at, 1, 0x0A, step, 0, 0, step, 0, 0})
	// A reserved event for the current instant from inside a posted event's
	// handler, with and without a delay: it fires before the posts waiting.
	f.Add([]byte{8, quarter, post, 3, 0x03, step, 0, 0})
	f.Add([]byte{8, 0, post, 3, 0x13, step, 0, 0, step, 0, 0})
	// A two-leg post and a one-leg post made one delay later land on the
	// same instant: sequence number decides.
	f.Add([]byte{0, quarter, at, 1, 0, post, twoLegs, 0, step, 0, 0, post, 0, 0, step, 0, 0, step, 0, 0})
	// Both lanes at delay 0, interleaved with At(now).
	f.Add([]byte{0, 0, post, oneThenTwo, 0, at, 0, 0, post, oneThenTwo, 0x06, at, 0, 0, step, 0, 0, step, 0, 0})
	// A Step whose earliest pending event is on a lane, the queue's front
	// well behind it.
	f.Add([]byte{0, quarter, at, 9, 0, post, oneThenTwo, 0, step, 0, 0, step, 0, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		var reserved uint64
		var delay float64
		if len(program) >= 2 {
			reserved, delay = uint64(program[0]%64), float64(program[1]%4)*0.25
			program = program[2:]
		}
		machine := func(lane bool, backend Backend) *postMachine {
			m := &postMachine{reserved: reserved, nextReserved: 1}
			m.eng = New(m.dispatch, 0, WithBackend(backend), WithPostDelay(delay))
			m.eng.ReserveSeqs(reserved)
			m.post = m.eng.Post
			if !lane {
				m.post = func(legs, ev int) { m.eng.After(float64(legs)*delay, ev) }
			}
			return m
		}
		ref := machine(false, BackendHeap)
		subjects := []*postMachine{machine(true, BackendHeap), machine(true, BackendLadder)}
		for ; len(program) >= 3; program = program[3:] {
			op, a, b := program[0]%8, program[1], program[2]
			for _, m := range append(subjects, ref) {
				switch op {
				case at:
					m.eng.At(m.eng.Now()+float64(a)*0.25, m.event(b))
				case 1:
					m.eng.After(float64(a)*0.25, m.event(b))
				case post:
					m.postNew(int(a%4)+1, b, int(a>>2))
				case atReserved:
					m.atReserved(m.eng.Now()+float64(a)*0.25, b)
				default:
					m.eng.Step()
				}
			}
			for _, m := range subjects {
				if m.eng.Pending() != ref.eng.Pending() || m.eng.Now() != ref.eng.Now() {
					t.Fatalf("diverged mid-program: lanes %d pending at %v, After %d at %v",
						m.eng.Pending(), m.eng.Now(), ref.eng.Pending(), ref.eng.Now())
				}
			}
		}
		ref.eng.Run()
		for _, m := range subjects {
			m.eng.Run()
			if m.eng.Pending() != 0 {
				t.Fatalf("drained engine reports %d pending", m.eng.Pending())
			}
			if got, want := m.eng.Executed(), ref.eng.Executed(); got != want {
				t.Fatalf("executed %d events, After engine %d", got, want)
			}
			if got, want := m.eng.Entries(), ref.eng.Entries(); got > want {
				t.Fatalf("pushed %d queue entries, After engine only %d", got, want)
			}
			if len(m.log) != len(ref.log) {
				t.Fatalf("dispatched %d events, After engine %d", len(m.log), len(ref.log))
			}
			for i := range ref.log {
				if m.log[i] != ref.log[i] {
					t.Fatalf("dispatch %d diverged: lanes %+v, After engine %+v", i, m.log[i], ref.log[i])
				}
			}
		}
	})
}
