package eventq

import "strconv"

// maxLegs is the widest post: a request/response round trip.
const maxLegs = 2

// lanes holds the posted events that have not fired: one FIFO per leg count,
// each already in dispatch order (see "The post lanes" in the package
// comment). Step merges their fronts with the queue's.
type lanes[E any] struct {
	delay  float64
	n      int                     // events waiting, all lanes together
	byLegs [maxLegs]fifo[event[E]] // byLegs[k-1] holds the k-leg posts
}

// Post schedules ev to be dispatched legs post delays (WithPostDelay) after
// the current virtual time. It is After(float64(legs)*delay, ev) in every
// observable respect — dispatch order, clock, Executed, Pending — except
// that the event never enters the priority queue. legs must be in 1..maxLegs.
func (e *Engine[E]) Post(legs int, ev E) {
	if uint(legs-1) >= maxLegs {
		panic("eventq: Post of " + strconv.Itoa(legs) + " legs, want 1.." + strconv.Itoa(maxLegs))
	}
	e.seq++
	// float64(...) rounds the product: never fused into the add (see the
	// randdist package comment).
	e.lanes.byLegs[legs-1].push(event[E]{at: e.now + float64(float64(legs)*e.lanes.delay), seq: e.seq, payload: ev})
	e.lanes.n++
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
