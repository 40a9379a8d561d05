package eventq

// lane is the state behind Post: the payloads and lengths of the bursts now
// in the queue. Why a run of posts may share a queue entry, when a post may
// join one, and why two FIFOs are enough is argued in the package comment
// ("The post lane").
type lane[E any] struct {
	delay float64
	// A queued burst's first payload rides in its queue entry, as any
	// event's does; the rest wait here, all bursts' in one line.
	payloads fifo[E]
	bursts   fifo[burst] // oldest first; the front one may be mid-delivery
	// openAt and openNext describe the newest burst: its delivery instant
	// and the sequence number a post must be assigned to extend it. Zero
	// openNext (no sequence number is ever zero) means there is none.
	openAt   float64
	openNext uint64
	// next is the rank of the oldest burst's queue entry — bursts.front().seq
	// — or zero when no burst is queued; Step tests every popped entry
	// against it.
	next uint64
	// cut asks the delivery loop to stop after the current handler: a
	// reserved event has been scheduled for the current instant (AtReserved
	// sets it whether or not a burst is being delivered; deliver clears it
	// on the way in).
	cut bool
}

// burst is one run of adjacent posts: the sequence number of its first
// undelivered payload and how many are left.
type burst struct {
	seq uint64
	n   int
}

// Post schedules ev to be dispatched one post delay (WithPostDelay) after
// the current virtual time. It is After(delay, ev) in every observable
// respect — dispatch order, clock, Executed, Pending, MaxPending — and
// cheaper when posts come in runs: see "The post lane" in the package comment.
func (e *Engine[E]) Post(ev E) {
	l := &e.lane
	e.seq++
	at := e.now + l.delay
	if e.seq == l.openNext && at == l.openAt {
		l.payloads.push(ev)
		l.bursts.back().n++
		l.openNext++
		if n := e.Pending(); n > e.maxLen {
			e.maxLen = n
		}
		return
	}
	if l.bursts.n == 0 {
		l.next = e.seq
	}
	l.bursts.push(burst{seq: e.seq, n: 1})
	l.openAt, l.openNext = at, e.seq+1
	e.schedule(at, e.seq, ev)
}

// deliver dispatches the burst whose queue entry Step just popped, the
// clock already at its instant; ev is the payload that entry carried. The
// burst record is re-read around every handler: a handler may extend this
// very burst (zero delay) or grow either ring.
func (e *Engine[E]) deliver(ev E) {
	l := &e.lane
	l.cut = false
	for {
		b := l.bursts.front()
		b.seq++
		b.n--
		e.count++
		e.dispatch(e.now, ev)
		if b = l.bursts.front(); b.n == 0 || l.cut {
			break
		}
		ev = l.payloads.pop()
	}
	if b := l.bursts.front(); b.n > 0 {
		// Cut short by a reserved event at this instant: the rest waits
		// behind it under its own first sequence number.
		e.schedule(e.now, b.seq, l.payloads.pop())
	} else {
		l.bursts.pop()
	}
	if l.bursts.n > 0 {
		l.next = l.bursts.front().seq
	} else {
		// The newest burst is the one just delivered: it is gone, and a
		// zero-delay post for this instant must not look for it.
		l.next, l.openNext = 0, 0
	}
}

// fifo is a growable circular queue; len(buf) is zero or a power of two.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(16, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest element, zeroing its slot so a payload
// that holds references does not pin them.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var none T
	q.buf[q.head] = none
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) back() *T { return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)] }
