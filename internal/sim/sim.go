// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking via a monotonically increasing sequence
// number), which makes every simulation fully deterministic for a given
// seed and input.
//
// All cluster components in this repository — nodes, the resource manager,
// application masters, heartbeats — are expressed as events on a single
// Engine, so an entire MapReduce job runs to completion in microseconds of
// wall time while reporting calibrated virtual seconds.
//
// # Performance
//
// The queue is an index-free 4-ary min-heap over (time, seq) with lazy
// cancellation: Cancel is O(1) — it marks the event and the mark is
// collected when the event surfaces at the heap root. Fired and collected
// events return to an intrusive free list and are reused by later At/After
// calls, so steady-state scheduling performs no per-event allocation. See
// DESIGN.md §11.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the virtual clock, in seconds.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

// Infinity is a time later than any event the engine will ever fire.
const Infinity Time = math.MaxFloat64

// event is a unit of work scheduled on the virtual clock. Storage is
// owned by the engine and recycled through a free list once the event
// fires or its cancellation is collected; callers refer to events only
// through generation-checked Handles.
type event struct {
	at   Time
	seq  uint64
	name string
	fn   func()

	gen      uint32 // incremented when the event's storage is collected
	queued   bool
	canceled bool
	nextFree *event
}

// Handle names one scheduled event. The zero Handle is valid and refers
// to no event (Cancel on it is a no-op). A Handle stays attached to its
// event for the event's whole lifetime; once the event has fired or its
// cancellation has been collected, the engine may recycle the storage,
// after which the Handle is stale and every operation on it — Cancel in
// particular — is a guaranteed no-op thanks to the generation check.
//
// Store a Handle by value: a *Handle shared between owners would let one
// owner's reschedule overwrite the handle another still means to cancel,
// and the crash-recovery tests fail when that happens. A Handle is not
// comparable — the leading zero-size func array makes == and != on it a
// compile error — because its identity answers nothing a caller should
// ask: a stale handle is not the zero Handle, and a live one says nothing
// about whether its event is still pending; ask At, Name or Canceled.
// The func array comes first so it adds no trailing padding: a Handle
// stays two words.
type Handle struct {
	_   [0]func()
	ev  *event
	gen uint32
}

// At returns the virtual time the event is (or was) scheduled for. It
// reports 0 for the zero Handle and is unspecified once the engine has
// recycled the event's storage.
func (h Handle) At() Time {
	if h.ev == nil {
		return 0
	}
	return h.ev.at
}

// Name returns the diagnostic label given at scheduling time ("" for the
// zero Handle; unspecified after recycling).
func (h Handle) Name() string {
	if h.ev == nil {
		return ""
	}
	return h.ev.name
}

// Canceled reports whether Cancel stopped this event before it fired. An
// event that actually ran reports false — Cancel after firing is a no-op
// and leaves no mark. The answer is exact until the engine reuses the
// event's storage for a new At/After call (the canceled mark survives
// collection and is only cleared on reuse).
func (h Handle) Canceled() bool {
	return h.ev != nil && h.ev.canceled
}

// Engine is a discrete-event simulator. The zero value is ready to use
// and behaves like New().
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	queue   []*event                  // 4-ary min-heap ordered by (at, seq)
	free    *event                    // free list of recycled event storage
	onFire  func(t Time, name string) // fired-sequence observer, may be nil
}

// New returns a fresh engine with the clock at zero and an empty queue.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including canceled
// events whose marks have not yet been collected from the heap).
func (e *Engine) Pending() int { return len(e.queue) }

// SetFireObserver installs fn to be called immediately before each event's
// callback runs, with the event's time and name. It exists so equivalence
// tests can capture the exact fired-event sequence; pass nil to remove.
func (e *Engine) SetFireObserver(fn func(t Time, name string)) { e.onFire = fn }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past or at NaN panics: it would violate causality (a NaN time orders
// before and after nothing in the heap) and always indicates a bug in
// the caller. The returned Handle may be used to Cancel the event until
// it fires.
func (e *Engine) At(t Time, name string, fn func()) Handle {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, t, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.nextFree
		ev.nextFree = nil
		ev.canceled = false
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.name, ev.fn, ev.queued = t, e.seq, name, fn, true
	e.seq++
	e.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds from now. A negative or NaN d
// panics.
func (e *Engine) After(d Duration, name string, fn func()) Handle {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return e.At(e.now+Time(d), name, fn)
}

// Cancel marks the event so it will not fire. It is O(1): the event
// keeps its heap slot until it surfaces and is collected. Canceling the
// zero Handle, an already-canceled event, or an event that already fired
// is a no-op — in particular, a fired event is never retroactively marked
// canceled, and a stale Handle whose storage was recycled can never
// cancel the storage's new occupant. Cancel is a method of the Handle,
// not of an Engine, so there is no second engine to pass it to: the
// event it marks is always the one its own engine queued.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || !ev.queued {
		return
	}
	ev.canceled = true
}

// collect recycles an event's storage onto the free list, invalidating
// all outstanding Handles to it via the generation bump. The canceled
// mark is deliberately left in place so Handle.Canceled stays accurate
// until the storage is reused.
func (e *Engine) collect(ev *event) {
	ev.gen++
	ev.queued = false
	ev.fn = nil
	ev.nextFree = e.free
	e.free = ev
}

// dropCanceledHead collects canceled events sitting at the heap root so
// the head, if any, is a live event.
func (e *Engine) dropCanceledHead() {
	for len(e.queue) > 0 && e.queue[0].canceled {
		e.collect(e.pop())
	}
}

// fire pops the heap root, advances the clock to it and runs it.
func (e *Engine) fire() {
	ev := e.pop()
	e.now = ev.at
	e.fired++
	name, fn := ev.name, ev.fn
	e.collect(ev)
	if e.onFire != nil {
		e.onFire(e.now, name)
	}
	fn()
}

// Step fires the next event, advancing the clock. It reports whether an
// event was fired (false when the queue is empty or the engine stopped).
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	e.dropCanceledHead()
	if len(e.queue) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run fires events until the queue is empty or Stop is called. It
// returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with timestamps ≤ deadline, then sets the clock to
// the deadline if it is later than the last event fired. If Stop is called
// (before or during the run) the clock freezes at the last fired event —
// a stopped simulation never reports a Now() later than the work it
// actually performed, so a run stopped by its last job's finish reads
// that finish on the clock.
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.stopped {
		e.dropCanceledHead()
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.fire()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop halts the engine: subsequent Step/Run calls fire nothing. It drops
// every pending event, collecting each so its closure is released and its
// Handle goes stale, and lets go of the event storage; Pending reads 0.
// A run ends here, at its last job's finish.
func (e *Engine) Stop() {
	e.stopped = true
	for _, ev := range e.queue {
		e.collect(ev)
	}
	e.queue, e.free = nil, nil
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves tree
// depth versus binary, trading slightly more comparisons per level for
// fewer cache-missing hops — the classic d-ary layout for hot priority
// queues.
const heapArity = 4

// less orders the heap by (time, seq): FIFO among same-instant events.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up to its position.
func (e *Engine) push(ev *event) {
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the minimum event.
func (e *Engine) pop() *event {
	q := e.queue
	root := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown places ev into the root hole, walking it down past smaller
// children.
func (e *Engine) siftDown(ev *event) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		best := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(q[j], q[best]) {
				best = j
			}
		}
		if !less(q[best], ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}
