// Package eventq implements the discrete-event engine underlying the
// trace-driven cluster simulator.
//
// The engine is a typed-event design: a priority queue of flat event
// records — timestamp, sequence number, and a caller-defined payload —
// with a virtual clock. Engine is generic over the payload type E, and
// executing an event means handing its payload to the single dispatch
// function supplied at construction. This is deliberate: the obvious
// alternative, a queue of func() closures, heap-allocates one closure (plus
// its captured variables) per scheduled event, and the engine is the
// simulator's hottest call site — a run executes hundreds of thousands of
// events. With a small struct payload (the simulator uses a 16-byte
// pointer-free union of tag bytes and int32 arena indices, so the queue is
// also opaque to the garbage collector), pushing, popping, and dispatching
// events performs zero heap allocations; the only allocations the engine
// ever makes are the amortized growths of the backing arrays, and New's
// capacity hint removes even those when the caller can bound the live
// event count.
//
// # Backends
//
// The queue behind the engine is selectable at construction
// (WithBackend); both backends realize the identical total order, so a
// run's output is backend-independent, byte for byte.
//
//   - BackendHeap: a binary min-heap over a []event[E]. O(log n) per
//     operation, no tuning, strictly bounded worst case. Hand-rolled
//     rather than built on container/heap, whose interface would box
//     every element through interface{} on push and pop.
//
//   - BackendLadder: a ladder (calendar) timeline — events binned by
//     timestamp into bucket rungs over a moving time window, buckets
//     sorted lazily on first pop, with an unsorted overflow tier for
//     far-future timers. Amortized O(1) per operation; the default for
//     internal/sim. See ladder.go for the structure and the argument
//     for why its order is exactly the heap's.
//
// # Ordering invariant
//
// Events fire in nondecreasing timestamp order, and events scheduled for the
// same instant fire in scheduling (insertion) order: every event carries a
// monotonically increasing sequence number assigned by At, and the queue
// orders by (timestamp, sequence). A caller that schedules events lazily
// but needs them ordered as if scheduled up front can reserve the low end
// of the sequence space with ReserveSeqs and place events there with
// AtReserved. This FIFO tie-breaking is load-bearing:
// it makes every simulation a pure function of (trace, config, seed), which
// is what lets internal/experiments fan runs out over worker pools while
// guaranteeing byte-identical results to a serial run.
//
// # The post lanes
//
// Post(legs, ev) fires ev exactly when and where After(legs*delay, ev) would,
// for the one delay fixed at construction (WithPostDelay), without entering
// the priority queue. The delay is a constant and the clock never runs
// backwards, so the events posted with one leg count are made in
// nondecreasing timestamp and increasing sequence-number order: a FIFO per
// leg count holds them already sorted by (at, seq). Step dispatches the least
// of the queue's front and the lanes' fronts under that same order — a k-way
// merge of sorted sequences — so every event fires where the queue alone
// would have put it; a reserved-sequence event needs no case of its own, it
// simply compares lower. internal/sim sends every constant-delay message this
// way: one leg for a probe or a placement, two for a request/response round
// trip.
//
// Executed and Pending count posted events like any others.
// Entries counts pushes into the priority queue, and a post makes none.
// FuzzPostVsAfter holds all of this to an engine on which Post is After.
//
// The whole package is a hot path and every function in it must be
// replayable; hawklint (internal/lint) enforces both:
//
//hawk:hotpath
//hawk:deterministic
package eventq

// Backend selects the priority-queue implementation behind an Engine.
// Both backends produce the identical dispatch order; they differ only
// in cost model (see the package comment).
type Backend uint8

const (
	// BackendHeap is the binary min-heap: O(log n) per operation.
	BackendHeap Backend = iota
	// BackendLadder is the ladder timeline: amortized O(1) per
	// operation on workloads whose pending window moves forward, which
	// is every discrete-event simulation.
	BackendLadder
)

// Option configures an Engine at construction time.
type Option func(*config)

type config struct {
	backend   Backend
	postDelay float64
}

// WithBackend selects the queue implementation. The default is
// BackendHeap.
func WithBackend(b Backend) Option {
	//hawk:allow construction-time option closure, one per New call, never on the event loop
	return func(c *config) { c.backend = b }
}

// WithPostDelay fixes the delay of one leg of a post: Post(legs, ev) is
// After(legs*d, ev). The default is zero. d must not be negative or NaN — the
// lanes' FIFOs rest on posts being delivered in the order they were made.
func WithPostDelay(d float64) Option {
	if !(d >= 0) {
		panic("eventq: negative or NaN post delay")
	}
	//hawk:allow construction-time option closure, one per New call, never on the event loop
	return func(c *config) { c.postDelay = d }
}

// Engine is a discrete-event simulation engine over payloads of type E.
// The zero value is not usable; call New.
type Engine[E any] struct {
	now          float64
	seq          uint64
	reserved     uint64       // low sequence numbers set aside by ReserveSeqs
	lastReserved uint64       // highest reserved seq used so far (must increase)
	events       eventHeap[E] // heap backend; unused when lad != nil
	lad          *ladder[E]   // ladder backend; nil selects the heap
	lanes        lanes[E]     // constant-delay events behind Post; see lane.go
	count        uint64       // total events executed
	pushed       uint64       // total queue entries pushed
	dispatch     func(now float64, ev E)
}

// New returns an empty engine with the clock at zero. dispatch is invoked
// once per executed event, with the clock already advanced to the event's
// timestamp; it must not be nil. capacity pre-sizes the event queue,
// eliminating growth-path copies on the hot loop: size it to the largest
// number of events expected to be pending at once (internal/sim derives a
// deliberately generous bound from its trace — see the hint comment in
// sim.Run). Zero is valid and simply means "grow on demand".
func New[E any](dispatch func(now float64, ev E), capacity int, opts ...Option) *Engine[E] {
	if dispatch == nil {
		panic("eventq: nil dispatch")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine[E]{dispatch: dispatch}
	e.lanes.delay = cfg.postDelay
	if cfg.backend == BackendLadder {
		e.lad = newLadder[E](capacity)
	} else if capacity > 0 {
		e.events = make(eventHeap[E], 0, capacity)
	}
	return e
}

// Now returns the current virtual time in seconds.
func (e *Engine[E]) Now() float64 { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine[E]) Executed() uint64 { return e.count }

// Entries returns the number of entries pushed into the priority queue so
// far: the events scheduled, less the posted ones.
func (e *Engine[E]) Entries() uint64 { return e.pushed }

// Pending returns the number of events waiting to be dispatched, posted ones
// included.
func (e *Engine[E]) Pending() int {
	if e.lad != nil {
		return e.lad.n + e.lanes.n
	}
	return len(e.events) + e.lanes.n
}

// Cap returns the current capacity of the backing array New's hint
// pre-sizes (for tests and introspection): the heap's event array, or the
// ladder's overflow tier, which is where a pre-loaded schedule lands.
func (e *Engine[E]) Cap() int {
	if e.lad != nil {
		return cap(e.lad.top)
	}
	return cap(e.events)
}

// At schedules ev to be dispatched at absolute virtual time t. Scheduling
// in the past (t < Now) is clamped to Now: the event fires before any later
// event but virtual time never runs backwards. Among events with equal
// timestamps, earlier At calls fire first (see the package ordering
// invariant).
func (e *Engine[E]) At(t float64, ev E) {
	e.seq++
	e.schedule(t, e.seq, ev)
}

// schedule clamps t to the clock and pushes the event — the single push
// path shared by At and AtReserved.
func (e *Engine[E]) schedule(t float64, seq uint64, ev E) {
	if t < e.now {
		t = e.now
	}
	e.pushed++
	if e.lad != nil {
		e.lad.push(event[E]{at: t, seq: seq, payload: ev})
	} else {
		e.events.push(event[E]{at: t, seq: seq, payload: ev})
	}
}

// After schedules ev to be dispatched d seconds after the current virtual
// time.
func (e *Engine[E]) After(d float64, ev E) {
	e.At(e.now+d, ev)
}

// ReserveSeqs reserves sequence numbers 1..n for AtReserved, starting
// ordinary At/After assignment at n+1. It must be called on a fresh engine
// (before anything is scheduled). Reserving lets a caller that schedules a
// known set of events lazily — internal/sim chains one trace submission at
// a time — keep the exact tie-break order those events would have had if
// pushed up front, before anything else: a reserved event wins every
// equal-timestamp tie against normally scheduled events.
func (e *Engine[E]) ReserveSeqs(n uint64) {
	if e.seq != 0 || e.Pending() != 0 {
		panic("eventq: ReserveSeqs after events were scheduled")
	}
	e.seq = n
	e.reserved = n
}

// AtReserved schedules ev at absolute virtual time t with the given
// reserved sequence number (1-based, at most the ReserveSeqs count).
// Scheduling in the past is clamped to Now, as in At. Reserved sequence
// numbers must be used in strictly increasing order — enforced, because a
// duplicated seq would give the queue two entries with an identical
// (timestamp, sequence) rank and silently break the total order the
// engine's determinism guarantee rests on.
func (e *Engine[E]) AtReserved(t float64, seq uint64, ev E) {
	if seq == 0 || seq > e.reserved {
		panic("eventq: AtReserved sequence number outside the reserved range")
	}
	if seq <= e.lastReserved {
		panic("eventq: AtReserved sequence numbers must strictly increase")
	}
	e.lastReserved = seq
	e.schedule(t, seq, ev)
}

// front returns the priority queue's earliest entry, or nil when it holds
// none. For the ladder backend this may sort or re-bucket internally, but
// never changes the dispatch order.
func (e *Engine[E]) front() *event[E] {
	if e.lad != nil {
		return e.lad.front()
	}
	if len(e.events) == 0 {
		return nil
	}
	return &e.events[0]
}

// Step executes the earliest pending event — the least of the queue's front
// and the lanes' fronts — advancing the clock. It returns false when
// nothing is pending. This is the hottest function of a run and is kept flat
// on purpose: a run that never posts pays one test of lanes.n.
func (e *Engine[E]) Step() bool {
	q := e.front()
	if e.lanes.n > 0 {
		l := &e.lanes.byLegs[0]
		for i := 1; i < maxLegs; i++ {
			if o := &e.lanes.byLegs[i]; l.n == 0 || o.n > 0 && eventLess(o.front(), l.front()) {
				l = o
			}
		}
		if q == nil || eventLess(l.front(), q) {
			ev := l.pop()
			e.lanes.n--
			e.now = ev.at
			e.count++
			e.dispatch(e.now, ev.payload)
			return true
		}
	}
	if q == nil {
		return false
	}
	var ev event[E]
	if e.lad != nil {
		ev = *q
		e.lad.advance()
	} else {
		ev = e.events.pop()
	}
	e.now = ev.at
	e.count++
	e.dispatch(e.now, ev.payload)
	return true
}

// Run executes events until the queue drains.
func (e *Engine[E]) Run() {
	for e.Step() {
	}
}

// event is one queue entry: the (at, seq) rank plus the caller's payload.
type event[E any] struct {
	at      float64
	seq     uint64
	payload E
}

// eventLess is the total order both backends realize: nondecreasing
// timestamp, FIFO sequence number within a timestamp.
func eventLess[E any](a, b *event[E]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
